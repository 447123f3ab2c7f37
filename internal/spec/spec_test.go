package spec

import (
	"strings"
	"testing"
)

func validSpec() *Spec {
	return &Spec{
		Name:          "forum",
		Origin:        "http://origin.test/index.php",
		ViewportWidth: 1024,
		Snapshot: SnapshotSpec{
			Enabled: true, Fidelity: "low", Scale: 0.45,
			CacheTTLSeconds: 3600, Shared: true,
		},
		Objects: []Object{
			{
				Name:     "login",
				Selector: "#loginform",
				Attributes: []Attribute{
					{Type: AttrSubpage, Params: map[string]string{"title": "Log in"}},
				},
			},
			{
				Name:     "logo",
				Selector: "#logo",
				Attributes: []Attribute{
					{Type: AttrCopyTo, Params: map[string]string{"subpage": "login", "position": "top"}},
					{Type: AttrReplace, Params: map[string]string{"attr": "src", "value": "/m/logo.png"}},
				},
			},
			{
				Name:  "styles",
				XPath: "//style[1]",
				Attributes: []Attribute{
					{Type: AttrDependency, Params: map[string]string{"subpage": "login"}},
				},
			},
		},
		Filters: []Filter{
			{Type: "title", Params: map[string]string{"value": "m.Forum"}},
		},
		Actions: []Action{
			{ID: 1, Match: `do=showpic&id=(\d+)`, Target: "http://origin.test/site.php?do=showpic&id=$1", Extract: "#pic"},
		},
	}
}

func TestValidSpecPasses(t *testing.T) {
	if err := validSpec().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := validSpec()
	data, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != s.Name || len(back.Objects) != 3 || len(back.Actions) != 1 {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if back.Objects[1].Attributes[0].Param("subpage", "") != "login" {
		t.Fatal("params lost")
	}
}

func TestParseRejectsBadJSON(t *testing.T) {
	if _, err := Parse([]byte("{nope")); err == nil {
		t.Fatal("expected error")
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		mutate func(*Spec)
		want   string
	}{
		{func(s *Spec) { s.Name = "" }, "missing name"},
		{func(s *Spec) { s.Origin = "" }, "missing origin"},
		{func(s *Spec) { s.Objects[0].Name = "" }, "empty name"},
		{func(s *Spec) { s.Objects[1].Name = "login" }, "duplicate object"},
		{func(s *Spec) { s.Objects[2].Name = "snapshot" }, "reserved"},
		{func(s *Spec) { s.Objects[0].Selector = "" }, "exactly one"},
		{func(s *Spec) { s.Objects[0].XPath = "//x" }, "exactly one"},
		{func(s *Spec) { s.Objects[0].Selector = ":bad(" }, "parsing selector"},
		{func(s *Spec) { s.Objects[2].XPath = "a[" }, "xpath"},
		{func(s *Spec) { s.Objects[0].Attributes[0].Type = "nope" }, "unknown attribute"},
		{func(s *Spec) { s.Objects[1].Attributes[0].Params["subpage"] = "ghost" }, "unknown subpage"},
		{func(s *Spec) { delete(s.Objects[1].Attributes[0].Params, "subpage") }, "requires a subpage"},
		{func(s *Spec) { s.Filters[0].Type = "nope" }, "unknown filter"},
		{func(s *Spec) { s.Actions[0].Match = "(" }, "action 1 match"},
		{func(s *Spec) { s.Actions[0].Target = "" }, "needs match and target"},
		{func(s *Spec) { s.Actions[0].Extract = ":bad(" }, "extract"},
		{func(s *Spec) { s.Actions = append(s.Actions, Action{ID: 1, Match: "x", Target: "y"}) }, "duplicate action"},
		{func(s *Spec) { s.Snapshot.Fidelity = "ultra" }, "fidelity"},
		{func(s *Spec) { s.Snapshot.Scale = -1 }, "scale"},
		{func(s *Spec) {
			s.Objects[0].Attributes = append(s.Objects[0].Attributes,
				Attribute{Type: AttrRepair, Params: map[string]string{"rules": "viewport", "device": "iPhone 4"}})
		}, "no device param"},
	}
	for i, c := range cases {
		s := validSpec()
		c.mutate(s)
		err := s.Validate()
		if err == nil {
			t.Errorf("case %d: expected error containing %q", i, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: err = %v, want contains %q", i, err, c.want)
		}
	}
}

func TestRelocateNeedsTarget(t *testing.T) {
	s := validSpec()
	s.Objects[0].Attributes = append(s.Objects[0].Attributes, Attribute{Type: AttrRelocate})
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "relocate requires") {
		t.Fatalf("err = %v", err)
	}
}

func TestFindHelpers(t *testing.T) {
	s := validSpec()
	if o, ok := s.FindObject("logo"); !ok || o.Selector != "#logo" {
		t.Fatal("FindObject wrong")
	}
	if _, ok := s.FindObject("nope"); ok {
		t.Fatal("missing object found")
	}
	if a, ok := s.FindAction(1); !ok || a.Extract != "#pic" {
		t.Fatal("FindAction wrong")
	}
	if _, ok := s.FindAction(9); ok {
		t.Fatal("missing action found")
	}
}

func TestAttrHelpers(t *testing.T) {
	o := validSpec().Objects[1]
	if !o.HasAttr(AttrCopyTo) || o.HasAttr(AttrSubpage) {
		t.Fatal("HasAttr wrong")
	}
	a, ok := o.Attr(AttrReplace)
	if !ok || a.Param("attr", "") != "src" || a.Param("missing", "d") != "d" {
		t.Fatal("Attr/Param wrong")
	}
}

func TestValidateEmptyObjectsOK(t *testing.T) {
	s := &Spec{Name: "min", Origin: "http://x/"}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestVersionStampedAndValidated(t *testing.T) {
	s := validSpec()
	data, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"version": 1`) {
		t.Fatalf("version not stamped: %.80s", data)
	}
	back, err := Parse(data)
	if err != nil || back.Version != 1 {
		t.Fatalf("round trip: %v %d", err, back.Version)
	}
	// Zero version (legacy) is accepted.
	s.Version = 0
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Future versions are refused.
	s.Version = 99
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "unsupported version") {
		t.Fatalf("err = %v", err)
	}
}

package attr

import (
	"fmt"
	"strings"
	"testing"

	"msite/internal/html"
	"msite/internal/spec"
)

// hierPage nests three levels: a forums section containing a hot-threads
// box containing a poll box.
const hierPage = `<html><body>
<div id="header" style="height: 40px">site header</div>
<div id="forums">
  <h2>Forums</h2>
  <div id="hot" style="margin-top: 10px">
    <h3>Hot threads</h3>
    <div id="poll">Weekly poll: favorite joinery</div>
    <p>thread one</p>
    <p>thread two</p>
  </div>
  <p>forum listing body</p>
</div>
</body></html>`

func hierSpec() *spec.Spec {
	return &spec.Spec{
		Name: "hier", Origin: "http://o/",
		Objects: []spec.Object{
			// Deliberately listed child-first: the applier must still
			// process parents before children.
			{Name: "poll", Selector: "#poll", Attributes: []spec.Attribute{
				{Type: spec.AttrSubpage, Params: map[string]string{
					"title": "Poll", "parent": "hot"}},
			}},
			{Name: "forums", Selector: "#forums", Attributes: []spec.Attribute{
				{Type: spec.AttrSubpage, Params: map[string]string{
					"title": "Forums", "prerender": "true"}},
			}},
			{Name: "hot", Selector: "#hot", Attributes: []spec.Attribute{
				{Type: spec.AttrSubpage, Params: map[string]string{
					"title": "Hot", "parent": "forums", "prerender": "true"}},
			}},
		},
	}
}

func TestSubSubpageHierarchicalMap(t *testing.T) {
	a := &Applier{ViewportWidth: 800}
	res, err := a.Apply(hierSpec(), html.Tidy(hierPage))
	if err != nil {
		t.Fatal(err)
	}
	forums, _ := res.FindSubpage("forums")
	hot, _ := res.FindSubpage("hot")
	poll, _ := res.FindSubpage("poll")

	// Regions: forums is relative to the main page; hot relative to the
	// forums subpage; poll relative to the hot subpage.
	if !forums.Region.Valid() || !hot.Region.Valid() || !poll.Region.Valid() {
		t.Fatalf("regions: forums=%+v hot=%+v poll=%+v", forums.Region, hot.Region, poll.Region)
	}
	// forums sits below the 40px header in the main page.
	if forums.Region.Y < 40 {
		t.Fatalf("forums Y = %d", forums.Region.Y)
	}
	// hot, measured inside the standalone forums page, sits below the h2
	// but well above its main-page position.
	if hot.Region.Y <= 0 || hot.Region.Y >= forums.Region.Y+40 {
		t.Logf("hot region: %+v (forums at %+v)", hot.Region, forums.Region)
	}

	// The pre-rendered parents carry image maps linking their children.
	forumsHTML := string(SerializeSubpage(forums))
	if !strings.Contains(forumsHTML, `usemap="#msite-forums-map"`) {
		t.Fatalf("forums page lacks usemap: %s", forumsHTML)
	}
	if !strings.Contains(forumsHTML, `href="/subpage/hot"`) {
		t.Fatal("forums map does not link hot")
	}
	hotHTML := string(SerializeSubpage(hot))
	if !strings.Contains(hotHTML, `href="/subpage/poll"`) {
		t.Fatalf("hot map does not link poll: %s", hotHTML)
	}
	// The child content left the parent pages.
	if strings.Contains(forumsHTML, "Hot threads") {
		t.Fatal("hot content still inside forums page")
	}
	if strings.Contains(hotHTML, "Weekly poll") {
		t.Fatal("poll content still inside hot page")
	}
	pollHTML := string(SerializeSubpage(poll))
	if !strings.Contains(pollHTML, "Weekly poll") {
		t.Fatal("poll content missing from its own page")
	}
}

// TestHierarchicalMapFollowsPreRenderScale: a pre-rendered parent shipped
// at the snapshot's scale links its children where they are in the scaled
// graphic, not where they were in the layout.
func TestHierarchicalMapFollowsPreRenderScale(t *testing.T) {
	sp := hierSpec()
	sp.Snapshot = spec.SnapshotSpec{Enabled: true, Scale: 0.5}
	res, err := (&Applier{ViewportWidth: 800}).Apply(sp, html.Tidy(hierPage))
	if err != nil {
		t.Fatal(err)
	}
	forums, _ := res.FindSubpage("forums")
	hot, _ := res.FindSubpage("hot")
	r := hot.Region.Scale(0.5)
	want := fmt.Sprintf(`coords="%d,%d,%d,%d"`, r.X, r.Y, r.X+r.W, r.Y+r.H)
	if page := string(SerializeSubpage(forums)); !strings.Contains(page, want) || !strings.Contains(page, `width="400"`) {
		t.Fatalf("forums page at half scale lacks %s or width=400: %s", want, page)
	}
}

func TestHierarchyChildWithoutPrerenderGetsNoMap(t *testing.T) {
	sp := hierSpec()
	// Make the parent non-prerendered: no image, so no map.
	sp.Objects[1].Attributes[0].Params["prerender"] = "false"
	a := &Applier{ViewportWidth: 800}
	res, err := a.Apply(sp, html.Tidy(hierPage))
	if err != nil {
		t.Fatal(err)
	}
	forums, _ := res.FindSubpage("forums")
	if strings.Contains(string(SerializeSubpage(forums)), "usemap") {
		t.Fatal("non-prerendered parent should not get a map")
	}
}

func TestHierarchyCycleDoesNotHang(t *testing.T) {
	sp := &spec.Spec{
		Name: "cycle", Origin: "http://o/",
		Objects: []spec.Object{
			{Name: "a", Selector: "#forums", Attributes: []spec.Attribute{
				{Type: spec.AttrSubpage, Params: map[string]string{"parent": "b"}},
			}},
			{Name: "b", Selector: "#hot", Attributes: []spec.Attribute{
				{Type: spec.AttrSubpage, Params: map[string]string{"parent": "a"}},
			}},
		},
	}
	a := &Applier{ViewportWidth: 800}
	if _, err := a.Apply(sp, html.Tidy(hierPage)); err != nil {
		t.Fatal(err)
	}
}

func TestTopologicalOrder(t *testing.T) {
	sp := hierSpec()
	subpages := map[string]*Subpage{
		"poll":   {Name: "poll", Parent: "hot"},
		"forums": {Name: "forums"},
		"hot":    {Name: "hot", Parent: "forums"},
	}
	objs := subpageObjectsTopological(sp, subpages)
	order := make([]string, len(objs))
	for i, o := range objs {
		order[i] = o.Name
	}
	joined := strings.Join(order, ",")
	if joined != "forums,hot,poll" {
		t.Fatalf("order = %s", joined)
	}
}

package proxy

import (
	"context"
	"math"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"msite/internal/attr"
	"msite/internal/cache"
	"msite/internal/html"
	"msite/internal/origin"
	"msite/internal/quality"
	"msite/internal/session"
	"msite/internal/spec"
)

// newQualityRig is newRig with control over the quality knobs.
func newQualityRig(t *testing.T, mutateSpec func(*spec.Spec), mutateCfg func(*Config)) *testRig {
	t.Helper()
	forum := origin.NewForum(origin.DefaultForumConfig())
	return qualityRigOver(t, forum.Handler(), func(originURL string) *spec.Spec {
		sp := forumSpec(originURL)
		if mutateSpec != nil {
			mutateSpec(sp)
		}
		return sp
	}, mutateCfg)
}

// qualityRigOver fronts any origin handler with the spec specFor builds
// for it.
func qualityRigOver(t *testing.T, h http.Handler, specFor func(originURL string) *spec.Spec, mutateCfg func(*Config)) *testRig {
	t.Helper()
	originSrv := httptest.NewServer(h)
	t.Cleanup(originSrv.Close)

	sessions, err := session.NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Spec: specFor(originSrv.URL), Sessions: sessions, Cache: cache.New()}
	if mutateCfg != nil {
		mutateCfg(&cfg)
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	proxySrv := httptest.NewServer(p)
	t.Cleanup(proxySrv.Close)

	jar, err := cookiejar.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	return &testRig{
		origin: originSrv,
		proxy:  proxySrv,
		p:      p,
		client: &http.Client{Jar: jar, Timeout: 30 * time.Second},
	}
}

// strictQuality is the strict gate: every repair rule on, parity must
// be exactly 1.
func strictQuality(cfg *Config) {
	cfg.RepairRules = "all"
	cfg.ParityMinScore = 1
}

// TestQualityCleanForumPassesStrictParity: with repair rules and the
// strict parity gate on, the real forum spec builds cleanly — the spec's
// deliberate drops (banner replace, pre-rendered forums subpage) are
// sanctioned, everything else survives in the entry+subpage closure.
func TestQualityCleanForumPassesStrictParity(t *testing.T) {
	rig := newQualityRig(t, nil, strictQuality)
	_, resp := rig.get(t, "/")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("entry status %d with strict parity on a clean spec", resp.StatusCode)
	}
	par := rig.p.ParityReport()
	if par == nil {
		t.Fatal("no parity report after a build")
	}
	if par.Score != 1 || par.MissingItems != 0 {
		t.Fatalf("clean forum spec scored %.4f, missing %d: %+v", par.Score, par.MissingItems, par)
	}
	if par.TotalItems < 20 {
		t.Fatalf("suspiciously small inventory: %+v", par)
	}
	// The forum page ships without a viewport meta, so the repair pass
	// must have fired at least that rule.
	if got := rig.p.obs.Counter("msite_quality_repairs_total", "rule", "viewport", "site", "sawdust").Value(); got == 0 {
		t.Fatal("viewport repair did not fire on the forum page")
	}
	if got := rig.p.obs.Gauge("msite_quality_parity_score", "site", "sawdust").Value(); got != 1 {
		t.Fatalf("parity gauge = %v", got)
	}
}

// specForClassifieds builds a small adaptation spec for the synthetic
// classifieds origin — the second clean corpus the strict parity gate
// is held to.
func specForClassifieds(originURL string) *spec.Spec {
	return &spec.Spec{
		Name:          "postings",
		Origin:        originURL + "/",
		ViewportWidth: 1024,
		Objects: []spec.Object{
			{Name: "categories", Selector: "#sidebar", Attributes: []spec.Attribute{
				{Type: spec.AttrSubpage, Params: map[string]string{"title": "Categories"}},
			}},
		},
	}
}

// TestSpecForClassifiedsValid keeps the classifieds spec loadable by the
// same validator real spec files go through.
func TestSpecForClassifiedsValid(t *testing.T) {
	if err := specForClassifieds("http://origin.example").Validate(); err != nil {
		t.Fatalf("classifieds spec invalid: %v", err)
	}
}

// TestQualityCleanClassifiedsPassesStrictParity: the second clean
// corpus, a classifieds site under its evaluation spec, builds under the
// strict gate too — no false failure on a page shaped unlike the forum.
func TestQualityCleanClassifiedsPassesStrictParity(t *testing.T) {
	classifieds := origin.NewClassifieds(origin.DefaultClassifiedsConfig())
	rig := qualityRigOver(t, classifieds.Handler(), specForClassifieds, strictQuality)
	_, resp := rig.get(t, "/")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("entry status %d with strict parity on the clean classifieds spec", resp.StatusCode)
	}
	par := rig.p.ParityReport()
	if par == nil || par.Score != 1 || par.MissingItems != 0 || par.TotalItems == 0 {
		t.Fatalf("clean classifieds spec: parity %+v", par)
	}
	if got := rig.p.obs.Counter("msite_quality_parity_failures_total", "site", "postings").Value(); got != 0 {
		t.Fatalf("parity failures = %d on a clean corpus", got)
	}
}

// TestQualityParityFailsBuildOnContentDrop: an overzealous filter that
// eats a text block, the login form or a list of links must fail the
// build loudly when the strict gate is on — a minimum score alone turns
// the parity check on.
func TestQualityParityFailsBuildOnContentDrop(t *testing.T) {
	for _, drop := range []struct{ name, pattern string }{
		{"announcement text", `(?is)<div id="announce".*?</div>`},
		{"login form", `(?is)<form id="loginform".*?</form>`},
		{"birthday links", `(?is)<div id="birthdays".*?</div>`},
	} {
		t.Run(drop.name, func(t *testing.T) {
			rig := newQualityRig(t, func(sp *spec.Spec) {
				sp.Filters = append(sp.Filters, spec.Filter{
					Type:   "replace",
					Params: map[string]string{"pattern": drop.pattern},
				})
			}, func(cfg *Config) { cfg.ParityMinScore = 1 })
			_, resp := rig.get(t, "/")
			if resp.StatusCode == http.StatusOK {
				t.Fatal("build served OK despite dropped content under the strict parity gate")
			}
			if got := rig.p.obs.Counter("msite_quality_parity_failures_total", "site", "sawdust").Value(); got == 0 {
				t.Fatal("parity failure counter not incremented")
			}
			if par := rig.p.ParityReport(); par == nil || par.MissingItems == 0 {
				t.Fatalf("parity report does not show the dropped content: %+v", par)
			}
		})
	}
}

// TestQualityParityReportOnlyMode: without a minimum score the same
// drop is reported (metrics, notes, report) but still serves.
func TestQualityParityReportOnlyMode(t *testing.T) {
	drop := func(sp *spec.Spec) {
		sp.Filters = append(sp.Filters, spec.Filter{
			Type:   "replace",
			Params: map[string]string{"pattern": `(?is)<div id="announce".*?</div>`},
		})
	}
	rig := newQualityRig(t, drop, func(cfg *Config) {
		cfg.ParityCheck = true
	})
	_, resp := rig.get(t, "/")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report-only parity failed the build: %d", resp.StatusCode)
	}
	par := rig.p.ParityReport()
	if par == nil || par.Score >= 1 || par.TextMissing == 0 {
		t.Fatalf("drop not reported: %+v", par)
	}
	noted := false
	for _, n := range par.Notes() {
		if strings.Contains(n, "missing text") {
			noted = true
		}
	}
	if !noted {
		t.Fatalf("notes missing the diff: %v", par.Notes())
	}
}

// TestQualityUnknownRuleRejectedAtConstruction: bad -repair-rules
// values surface at startup, not mid-build.
func TestQualityUnknownRuleRejectedAtConstruction(t *testing.T) {
	forum := origin.NewForum(origin.DefaultForumConfig())
	originSrv := httptest.NewServer(forum.Handler())
	t.Cleanup(originSrv.Close)
	sessions, err := session.NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(Config{
		Spec: forumSpec(originSrv.URL), Sessions: sessions, Cache: cache.New(),
		RepairRules: "viewport,bogus",
	})
	if err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("unknown rule accepted: %v", err)
	}
}

// TestQualityParityMinScoreOutOfRange: a minimum score is a fraction;
// anything outside [0, 1] is refused at construction.
func TestQualityParityMinScoreOutOfRange(t *testing.T) {
	sessions, err := session.NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, min := range []float64{-0.1, 1.5, math.NaN()} {
		_, err := New(Config{
			Spec: forumSpec("http://origin.invalid"), Sessions: sessions, Cache: cache.New(),
			ParityMinScore: min,
		})
		if err == nil || !strings.Contains(err.Error(), "outside [0, 1]") {
			t.Errorf("ParityMinScore %v: err = %v", min, err)
		}
	}
}

// TestQualityRepairAttrServed: a spec's repair attribute runs in the
// served build and notes its fixes in /stats; a device param, which no
// build could match, is refused when the proxy loads the spec.
func TestQualityRepairAttrServed(t *testing.T) {
	repair := func(params map[string]string) func(*spec.Spec) {
		return func(s *spec.Spec) {
			s.Objects = append(s.Objects, spec.Object{Name: "page", Selector: "body",
				Attributes: []spec.Attribute{{Type: spec.AttrRepair, Params: params}}})
		}
	}
	rig := newRig(t, repair(map[string]string{"rules": "viewport"}))
	if _, resp := rig.get(t, "/"); resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if stats, _ := rig.get(t, "/stats"); !strings.Contains(stats, "repair rule viewport made 1 fixes") {
		t.Fatalf("repair not noted in /stats: %s", stats)
	}

	sessions, err := session.NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sp := forumSpec("http://origin.invalid/")
	repair(map[string]string{"rules": "viewport", "device": "iPhone 4"})(sp)
	if _, err := New(Config{Spec: sp, Sessions: sessions, Cache: cache.New()}); err == nil ||
		!strings.Contains(err.Error(), "device") {
		t.Fatalf("device-gated repair accepted: %v", err)
	}
}

// TestQualityRepairNotesInRuleOrder: the build's repair pass over the
// same page, 20 times with every rule, notes its repairs in one order,
// the rules' own.
func TestQualityRepairNotesInRuleOrder(t *testing.T) {
	const page = `<html><head><title>t</title></head><body>
<table width="1200"><tr><td><span style="font-size: 9px">tiny</span>
<a href="/a">a</a> <a href="/b">b</a></td></tr></table></body></html>`
	o := &buildOptions{repairs: quality.AllRules()}
	orders := map[string]bool{}
	for i := 0; i < 20; i++ {
		result := &attr.Result{Doc: html.Tidy(page)}
		if err := qualityPass(context.Background(), nil, nil, o, result, &buildReport{}); err != nil {
			t.Fatal(err)
		}
		orders[strings.Join(result.Notes, "\n")] = true
	}
	if len(orders) != 1 {
		t.Fatalf("20 repairs of one page gave %d note orders", len(orders))
	}
	for notes := range orders {
		if strings.Count(notes, "repair rule") < 2 {
			t.Fatalf("want several rules' notes to order, got %q", notes)
		}
	}
}

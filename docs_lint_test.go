// Docs lint: the operator-facing documentation must keep up with the
// code. Every flag msite-proxy registers has to appear in the README's
// operator-runbook flag table, every row of that table and of the
// core.Config reference has to name a knob that still exists, every
// metric the code registers has a row in docs/OBSERVABILITY.md and every
// row there a metric, the knob count stays under its ceiling, and the
// docs the README links to have to exist. CI runs this with the rest of
// the suite.
package msite_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// proxyFlagNames extracts the flag names registered by cmd/msite-proxy
// from its source, so the lint cannot drift from the binary.
func proxyFlagNames(t *testing.T) []string {
	t.Helper()
	src, err := os.ReadFile("cmd/msite-proxy/main.go")
	if err != nil {
		t.Fatalf("read msite-proxy source: %v", err)
	}
	// flag.String("addr", ...) / flag.Var(&specPaths, "spec", ...)
	decl := regexp.MustCompile(`flag\.[A-Za-z0-9]+\((?:&[A-Za-z0-9]+, )?"([a-z0-9-]+)"`)
	var names []string
	for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
		names = append(names, m[1])
	}
	if len(names) < 10 {
		t.Fatalf("flag extraction found only %d flags (%v) — regexp out of date?", len(names), names)
	}
	return names
}

func TestReadmeDocumentsEveryProxyFlag(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatalf("read README: %v", err)
	}
	// The runbook table lists each flag as a `| `-name` |` row.
	for _, name := range proxyFlagNames(t) {
		row := "| `-" + name + "`"
		if !strings.Contains(string(readme), row) {
			t.Errorf("README.md operator runbook is missing a row for msite-proxy flag -%s", name)
		}
	}
}

func TestReadmeLinksResolve(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatalf("read README: %v", err)
	}
	link := regexp.MustCompile(`\]\(((?:docs/)?[A-Za-z0-9_.-]+\.(?:md|json))\)`)
	seen := map[string]bool{}
	for _, m := range link.FindAllStringSubmatch(string(readme), -1) {
		path := m[1]
		if seen[path] {
			continue
		}
		seen[path] = true
		if _, err := os.Stat(path); err != nil {
			t.Errorf("README.md links to %s, which does not exist", path)
		}
	}
	if len(seen) == 0 {
		t.Fatal("found no relative doc links in README.md — link regexp out of date?")
	}
}

// subsystemDocs is the knob manifest: what each subsystem's document has
// to keep up with.
var subsystemDocs = []struct {
	// doc is the subsystem's document under docs/.
	doc string
	// flags must each appear in doc as `-flag`; with inReadme, also as a
	// row of the README's operator-runbook table.
	flags    []string
	inReadme bool
	// metrics must each be named in doc; with inObs, also in
	// docs/OBSERVABILITY.md's metric list.
	metrics []string
	inObs   bool
	// topics are the endpoints, files and terms doc must cover.
	topics []string
	// tests are the go test cases that assert the subsystem's
	// invariants: doc must name each, and each must exist.
	tests []string
	// elsewhere names what other documents must say about the subsystem.
	elsewhere map[string][]string
}{
	{
		doc:   "RESILIENCE.md",
		flags: []string{"-fetch-timeout"},
		metrics: []string{
			"msite_fetch_retries_total", "msite_proxy_stale_served_total",
			"msite_proxy_degraded_total",
		},
		tests: []string{"TestResilienceChaos"},
	},
	{
		doc:   "STORE.md",
		flags: []string{"-store-dir"},
		metrics: []string{
			"msite_store_hits_total", "msite_store_misses_total",
			"msite_store_bytes", "msite_store_records",
			"msite_store_write_drops_total",
			"msite_store_recovered_records_total",
			"msite_store_corrupt_records_total",
		},
		inObs: true,
		tests: []string{
			"TestFrameworkWarmRestart", "TestPutSurvivesUncleanAbandon",
			"TestRecoveryTornTailProperty", "TestRecoveryDamagedRecordFiles",
			"TestTieredNeverBlocksOnStalledWriter",
		},
		elsewhere: map[string][]string{"OBSERVABILITY.md": {
			"msite_proxy_bundle_reuses_total", "msite_session_cleanup_errors_total",
		}},
	},
	{
		doc:     "ADMISSION.md",
		metrics: []string{"msite_admission_coalesced_total"},
		inObs:   true,
		tests:   []string{"TestColdCrowdCoalescesToOneBuild", "TestCrowdRow"},
	},
	{
		doc:      "PERFORMANCE.md",
		flags:    []string{"-cache-max-bytes"},
		inReadme: true,
		metrics:  []string{"msite_proxy_atf_seconds"},
		topics:   []string{"byte-identical"},
		tests:    []string{"TestBufferedOverlayMatchesGolden"},
	},
	{
		// Flags, metrics, the debug endpoint, and the rule catalog.
		doc:      "QUALITY.md",
		flags:    []string{"-repair-rules", "-parity-check", "-parity-min-score"},
		inReadme: true,
		metrics: []string{
			"msite_quality_repairs_total", "msite_quality_parity_score",
			"msite_quality_parity_failures_total",
		},
		inObs: true,
		topics: []string{
			"viewport", "fixed-width", "touch-target", "font-floor",
			"/debug/parity", "sanctioned", "per-device variants are parked",
		},
		tests: []string{
			"TestQualityCleanForumPassesStrictParity", "TestQualityCleanClassifiedsPassesStrictParity",
			"TestQualityParityFailsBuildOnContentDrop", "TestEveryRuleFiresAndRelintsClean",
		},
		elsewhere: map[string][]string{"ATTRIBUTES.md": {"`repair`"}},
	},
	{
		// The surface every node serves with the default flags: metrics,
		// traces, pprof, the trace header and the request log.
		doc:      "OBSERVABILITY.md",
		flags:    []string{"-metrics", "-log-level"},
		inReadme: true,
		metrics: []string{
			"msite_proxy_requests_total", "msite_proxy_errors_total",
			"msite_http_request_seconds", "msite_stage_seconds",
		},
		topics: []string{
			"/metrics", "?format=json", "/debug/traces", "/debug/pprof/",
			"X-MSite-Trace", "trace=",
		},
		tests: []string{"TestMetricsEndpointMounted", "TestTracesEndpoint"},
	},
}

// TestSubsystemDocsCoverEveryKnob pins each subsystem's document to that
// subsystem's surface, as listed in subsystemDocs.
func TestSubsystemDocsCoverEveryKnob(t *testing.T) {
	read := func(path string) string {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		return string(data)
	}
	readme, obsDoc := read("README.md"), read("docs/OBSERVABILITY.md")
	defined := testFuncNames(t)
	for _, sub := range subsystemDocs {
		doc := read("docs/" + sub.doc)
		for _, flag := range sub.flags {
			if !strings.Contains(doc, "`"+flag+"`") {
				t.Errorf("docs/%s does not document %s", sub.doc, flag)
			}
			if sub.inReadme && !strings.Contains(readme, "| `"+flag+"`") {
				t.Errorf("README.md operator runbook is missing a row for %s", flag)
			}
		}
		for _, metric := range sub.metrics {
			if !strings.Contains(doc, metric) {
				t.Errorf("docs/%s does not document metric %s", sub.doc, metric)
			}
			if sub.inObs && !strings.Contains(obsDoc, metric) {
				t.Errorf("docs/OBSERVABILITY.md does not list metric %s", metric)
			}
		}
		for _, topic := range sub.topics {
			if !strings.Contains(doc, topic) {
				t.Errorf("docs/%s does not cover %q", sub.doc, topic)
			}
		}
		for _, test := range sub.tests {
			if !strings.Contains(doc, "`"+test+"`") {
				t.Errorf("docs/%s does not name the test %s", sub.doc, test)
			}
			if !defined[test] {
				t.Errorf("docs/%s names %s, which no _test.go file defines", sub.doc, test)
			}
		}
		for other, wants := range sub.elsewhere {
			text := read("docs/" + other)
			for _, want := range wants {
				if !strings.Contains(text, want) {
					t.Errorf("docs/%s does not mention %s (for %s)", other, want, sub.doc)
				}
			}
		}
	}
}

// testFuncNames is every Test function the module's _test.go files
// define, so a doc cannot name a test that was renamed or deleted.
func testFuncNames(t *testing.T) map[string]bool {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func (Test[A-Za-z0-9_]*)\(`)
	names := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			names[m[1]] = true
		}
		return err
	})
	if err != nil {
		t.Fatalf("scan test files: %v", err)
	}
	return names
}

// coreConfigFields extracts the exported field names of core.Config
// from its source, so the lint cannot drift from the struct.
func coreConfigFields(t *testing.T) []string {
	t.Helper()
	return configFields(t, "internal/core/core.go")
}

// configFields extracts the exported field names of the Config struct
// declared in the Go file at path.
func configFields(t *testing.T, path string) []string {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	structRe := regexp.MustCompile(`(?s)type Config struct \{.*?\n\}`)
	body := structRe.FindString(string(src))
	if body == "" {
		t.Fatalf("could not locate the Config struct in %s — lint regexp out of date?", path)
	}
	// One name per line, or several: "A, B time.Duration".
	field := regexp.MustCompile(`(?m)^\t([A-Z][A-Za-z0-9]*(?:, [A-Z][A-Za-z0-9]*)*) `)
	var names []string
	for _, m := range field.FindAllStringSubmatch(body, -1) {
		names = append(names, strings.Split(m[1], ", ")...)
	}
	if len(names) < 5 {
		t.Fatalf("%s: field extraction found only %d fields (%v) — regexp out of date?", path, len(names), names)
	}
	return names
}

// TestDocsCoverConfigAndFlags is the docs-lint gate CI runs: every
// core.Config field and every msite-proxy flag must be mentioned
// somewhere under docs/ (the docs/README.md reference table satisfies
// fields; subsystem docs satisfy flags). A new knob without
// documentation fails the build.
func TestDocsCoverConfigAndFlags(t *testing.T) {
	entries, err := os.ReadDir("docs")
	if err != nil {
		t.Fatalf("read docs/: %v", err)
	}
	var all strings.Builder
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".md") {
			continue
		}
		data, err := os.ReadFile("docs/" + e.Name())
		if err != nil {
			t.Fatalf("read docs/%s: %v", e.Name(), err)
		}
		all.Write(data)
		all.WriteByte('\n')
	}
	docs := all.String()
	for _, field := range coreConfigFields(t) {
		if !strings.Contains(docs, "`"+field+"`") {
			t.Errorf("core.Config field %s is not documented anywhere under docs/ (add it to docs/README.md's reference table)", field)
		}
	}
	for _, name := range proxyFlagNames(t) {
		if !strings.Contains(docs, "`-"+name+"`") {
			t.Errorf("msite-proxy flag -%s is not documented anywhere under docs/", name)
		}
	}
}

// TestDocsNameOnlyLiveKnobs is the converse of TestDocsCoverConfigAndFlags
// and TestReadmeDocumentsEveryProxyFlag: every field row of docs/README.md's
// core.Config reference names a field core.Config has, and every flag row
// of README.md's runbook names a flag msite-proxy registers, so a deleted
// knob cannot linger in the docs.
func TestDocsNameOnlyLiveKnobs(t *testing.T) {
	live := func(names []string) map[string]bool {
		set := make(map[string]bool, len(names))
		for _, n := range names {
			set[n] = true
		}
		return set
	}
	for _, table := range []struct {
		path, what string
		row        *regexp.Regexp
		live       map[string]bool
	}{
		{"docs/README.md", "core.Config field", regexp.MustCompile("(?m)^\\| `([A-Z][A-Za-z0-9]*)` \\|"), live(coreConfigFields(t))},
		{"README.md", "msite-proxy flag", regexp.MustCompile("(?m)^\\| `-([a-z0-9-]+)` \\|"), live(proxyFlagNames(t))},
	} {
		data, err := os.ReadFile(table.path)
		if err != nil {
			t.Fatalf("read %s: %v", table.path, err)
		}
		rows := table.row.FindAllStringSubmatch(string(data), -1)
		if len(rows) < 5 {
			t.Fatalf("%s: found only %d %s rows — regexp out of date?", table.path, len(rows), table.what)
		}
		for _, m := range rows {
			if !table.live[m[1]] {
				t.Errorf("%s has a row for %s %s, which does not exist", table.path, table.what, m[1])
			}
		}
	}
}

// TestKnobCeiling caps the operator surface: core.Config fields,
// msite-proxy flags and proxy.Config fields. A knob deleted for want of
// a consumer cannot come back without raising its ceiling here. The
// counts are logged as a markdown table for the CI summary.
func TestKnobCeiling(t *testing.T) {
	t.Logf("| knob | count | ceiling |")
	t.Logf("|---|---|---|")
	for _, k := range []struct {
		knob           string
		count, ceiling int
	}{
		{"`core.Config` fields", len(coreConfigFields(t)), 9},
		{"`msite-proxy` flags", len(proxyFlagNames(t)), 13},
		{"`proxy.Config` fields", len(configFields(t, "internal/proxy/proxy.go")), 12},
	} {
		t.Logf("| %s | %d | %d |", k.knob, k.count, k.ceiling)
		if k.count > k.ceiling {
			t.Errorf("%s: %d, ceiling %d", k.knob, k.count, k.ceiling)
		}
	}
}

// notMetrics are msite_-prefixed string literals in the code that name
// something other than a metric.
var notMetrics = map[string]bool{"msite_session": true} // the session cookie

// TestMetricInventory holds docs/OBSERVABILITY.md's metric tables to the
// code both ways: every msite_* metric name the non-test Go under
// internal/ and cmd/ registers has a row there, and every row names a
// metric the code still registers.
func TestMetricInventory(t *testing.T) {
	literal := regexp.MustCompile(`"(msite_[a-z0-9_]+)"`)
	code := map[string]bool{}
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			src, err := os.ReadFile(path)
			for _, m := range literal.FindAllStringSubmatch(string(src), -1) {
				if !notMetrics[m[1]] {
					code[m[1]] = true
				}
			}
			return err
		})
		if err != nil {
			t.Fatalf("scan %s: %v", root, err)
		}
	}
	doc, err := os.ReadFile("docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatalf("read docs/OBSERVABILITY.md: %v", err)
	}
	row := regexp.MustCompile("(?m)^\\| `(msite_[a-z0-9_]+)` \\|")
	rows := map[string]bool{}
	for _, m := range row.FindAllStringSubmatch(string(doc), -1) {
		rows[m[1]] = true
	}
	if len(code) < 30 || len(rows) < 30 {
		t.Fatalf("found %d metric names in code and %d rows — regexp out of date?", len(code), len(rows))
	}
	for name := range code {
		if !rows[name] {
			t.Errorf("metric %s is registered in code but has no row in docs/OBSERVABILITY.md", name)
		}
	}
	for name := range rows {
		if !code[name] {
			t.Errorf("docs/OBSERVABILITY.md has a row for %s, which no code registers", name)
		}
	}
}

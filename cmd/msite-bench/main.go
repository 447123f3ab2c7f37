// Command msite-bench regenerates the paper's evaluation — Table 1,
// Figure 7, and the in-text page-weight, pre-render speedup, image
// fidelity and cache-ablation results — printing each beside the paper's
// values. It starts the synthetic origin unless -origin names one.
//
// Usage:
//
//	msite-bench [-origin URL] [-window 3s -reps 3 -csv] [all | pageweight | table1 | speedup | fidelity | ablation | fig7 ...]
package main

import (
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"time"

	"msite/internal/experiments"
	"msite/internal/origin"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "msite-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	originURL := flag.String("origin", "", "forum origin URL (default: internal server)")
	window := flag.Duration("window", 3*time.Second, "Figure 7 measurement window per run")
	reps := flag.Int("reps", 3, "Figure 7 repetitions per point")
	csv := flag.Bool("csv", false, "emit Figure 7 data as CSV for plotting")
	flag.Parse()

	url := *originURL
	if url == "" {
		forum := origin.NewForum(origin.DefaultForumConfig())
		srv := httptest.NewServer(forum.Handler())
		defer srv.Close()
		url = srv.URL + "/"
		fmt.Printf("internal origin: %s (%d byte entry page)\n\n", url, forum.EntryPageBytes())
	}

	// show prints an experiment's formatted result unless it failed.
	show := func(err error, format func() string) error {
		if err != nil {
			return err
		}
		fmt.Println(format())
		return nil
	}
	runOne := func(name string) error {
		switch name {
		case "pageweight":
			w, err := experiments.MeasurePageWeight(url)
			return show(err, func() string { return experiments.FormatPageWeight(w) })
		case "table1":
			rows, err := experiments.Table1(url)
			return show(err, func() string { return experiments.FormatTable1(rows) })
		case "speedup":
			res, err := experiments.PreRenderSpeedup(url)
			return show(err, func() string {
				return fmt.Sprintf("Pre-render speedup (§3.3; paper: factor of 5)\ndirect BlackBerry load: %v\ncached snapshot load:   %v\nspeedup: %.1fx\n",
					res.Direct.Round(100*time.Millisecond), res.Snapshot.Round(100*time.Millisecond), res.Factor)
			})
		case "fidelity":
			rows, err := experiments.ImageFidelity(url)
			return show(err, func() string { return experiments.FormatFidelity(rows) })
		case "ablation":
			row, err := experiments.CacheAblation(url)
			return show(err, func() string {
				cold, second := row.Baseline, row.Variant
				return fmt.Sprintf("Ablation: %s\ncold view: %v (%d adaptation, %d snapshot render)\n"+
					"second device: %v (%d B over %d requests, %d snapshot hit) (%.0fx)\n",
					row.Name, cold.Elapsed, cold.Stats.Adaptations, cold.Stats.SnapshotRenders,
					second.Elapsed, second.Complexity.Bytes, second.Complexity.Requests,
					second.Stats.SnapshotHits-cold.Stats.SnapshotHits, float64(cold.Elapsed)/float64(second.Elapsed))
			})
		case "fig7":
			points, err := experiments.Figure7(experiments.Fig7Config{OriginURL: url, Window: *window, Reps: *reps})
			if err != nil || !*csv {
				return show(err, func() string { return experiments.FormatFig7(points) })
			}
			fmt.Println("browser_percent,req_per_min,runs,marked,builds,coalesced")
			for _, p := range points {
				fmt.Printf("%.1f,%.0f,%d,%d,%d,%d\n", p.BrowserPercent, p.ReqPerMin, p.Runs, p.Marked, p.Builds, p.Coalesced)
			}
			return nil
		}
		return fmt.Errorf("unknown experiment %q", name)
	}

	names := flag.Args()
	if len(names) == 0 || names[0] == "all" {
		names = []string{"pageweight", "table1", "speedup", "fidelity", "ablation", "fig7"}
	}
	for _, name := range names {
		if err := runOne(name); err != nil {
			return err
		}
	}
	return nil
}

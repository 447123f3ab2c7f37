// Command bench is the repository's benchmark: it runs one device-view
// workload against the real m.Site stack and prints every metric by name.
// See README.md in this directory.
//
//	go -C bench run . --workload warm_browse --seed 42 --seconds 26 --trace 0
//	go -C bench run . --workload cold_build --trace 1     (per-layer run)
//	go -C bench run . suite                               (every workload once)
//	go -C bench run . aa                                  (same-code noise check)
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	if err := dispatch(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func dispatch(args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "serve":
			return serveCmd(args[1:])
		case "suite":
			return suiteCmd(args[1:])
		case "aa":
			return aaCmd(args[1:])
		case "trace":
			return runCmd(append(args[1:], "--trace", "1"))
		}
	}
	return runCmd(args)
}

func serveCmd(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	origin := fs.String("origin", "", "origin base URL")
	dir := fs.String("dir", "", "directory for sessions and the store")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *origin == "" || *dir == "" {
		return errors.New("serve needs -origin and -dir")
	}
	return serve(*origin, *dir)
}

// repoRoot is the nearest directory at or above the working directory
// that holds BENCHMARK.json: the checkout everything is written inside.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json at or above the working directory")
		}
		dir = parent
	}
}

// scratch creates a directory for this run under the checkout's ignored
// build directory and returns it with the build directory itself.
func scratch() (outDir, workDir string, err error) {
	root, err := repoRoot()
	if err != nil {
		return "", "", err
	}
	outDir = filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", "", err
	}
	workDir, err = os.MkdirTemp(outDir, "run-")
	return outDir, workDir, err
}

func runCmd(args []string) error {
	o := defaultOptions()
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: cold_build, cold_wan, new_session, warm_browse")
	fs.Int64Var(&o.seed, "seed", o.seed, "seed of the origin's content and the subpage draw (held-out seed: 7)")
	fs.Float64Var(&o.seconds, "seconds", o.seconds, "seconds to measure for")
	trace := fs.Int("trace", 0, "1 runs in one process with spans around every layer call and reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	o.traced = *trace != 0
	res, err := runOnce(w, o)
	if err != nil {
		return err
	}
	printResult(w, o, res)
	if !res.Correct {
		return fmt.Errorf("%d of %d views failed", res.Failed, res.Attempted)
	}
	return nil
}

// runOnce runs w in a scratch directory of its own and removes it.
func runOnce(w workload, o options) (*result, error) {
	var err error
	if o.outDir, o.workDir, err = scratch(); err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(o.workDir) }()
	if o.traced {
		return runTraced(w, o)
	}
	return runWorkload(w, o)
}

// printResult prints every metric by name with its unit, then the result
// as one JSON object on the last line.
func printResult(w workload, o options, res *result) {
	for _, line := range res.rounds {
		fmt.Println(line)
	}
	fmt.Printf("workload %s seed %d: %d views, %d failed\n", w.name, o.seed, res.Attempted, res.Failed)
	for _, group := range []map[string]metric{res.Metrics, res.layer} {
		names := make([]string, 0, len(group))
		for name := range group {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("  %-34s %14.4f %s\n", name, group[name].Value, group[name].Unit)
		}
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

func suiteCmd(args []string) error {
	o := defaultOptions()
	fs := flag.NewFlagSet("suite", flag.ContinueOnError)
	fs.Int64Var(&o.seed, "seed", o.seed, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", o.seconds, "seconds to measure each workload for")
	if err := fs.Parse(args); err != nil {
		return err
	}
	failed := 0
	for _, w := range workloads {
		res, err := runOnce(w, o)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		printResult(w, o, res)
		failed += res.Failed
	}
	if failed > 0 {
		return fmt.Errorf("%d views failed", failed)
	}
	return nil
}

package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// benchSpec is BENCHMARK.json: the one place metric names, units,
// directions and bounds are written down.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec() (*benchSpec, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// aaMetric compares one metric of one workload between two sets of runs
// of the same binary.
type aaMetric struct {
	Workload  string    `json:"workload"`
	Metric    string    `json:"metric"`
	Unit      string    `json:"unit"`
	Bound     float64   `json:"bound"`
	A         []float64 `json:"a"`
	B         []float64 `json:"b"`
	MedianA   float64   `json:"median_a"`
	MedianB   float64   `json:"median_b"`
	DiffPct   float64   `json:"diff_pct"`
	SpreadA   float64   `json:"spread_a_pct"`
	SpreadB   float64   `json:"spread_b_pct"`
	Pass      bool      `json:"pass"`
	ThirdPass bool      `json:"spread_within_third_of_bound"`
}

type aaReport struct {
	Runs       int        `json:"runs_per_set"`
	RunSeconds float64    `json:"run_seconds"`
	NumCPU     int        `json:"num_cpu"`
	Pass       bool       `json:"pass"`
	Metrics    []aaMetric `json:"metrics"`
}

// runChild runs one workload in a process of its own and parses the
// result line.
func runChild(workload string, seed int64, seconds float64) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	if !res.Correct || res.Failed > 0 {
		return nil, fmt.Errorf("%s seed %d: %d of %d views failed", workload, seed, res.Failed, res.Attempted)
	}
	return &res, nil
}

// aaCmd runs the suite as two interleaved sets of the same binary (A, B,
// B, A, ...), every run on another seed, and fails if the sets disagree by
// more than a metric's bound or a set's own runs spread wider than it:
// the acceptance check a later change is held to, applied to no change.
func aaCmd(args []string) error {
	fs := flag.NewFlagSet("aa", flag.ContinueOnError)
	runs := fs.Int("runs", 3, "runs per workload per set")
	seconds := fs.Float64("seconds", defaultOptions().seconds, "seconds each run measures for")
	out := fs.String("out", "", "file to write the JSON report to")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	report := aaReport{Runs: *runs, RunSeconds: *seconds, NumCPU: runtime.NumCPU(), Pass: true}
	for _, w := range workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < *runs; i++ {
			order := [2]int{0, 1}
			if i%2 == 1 {
				order = [2]int{1, 0}
			}
			for _, set := range order {
				seed := int64(1000*(set+1) + i)
				res, err := runChild(w.name, seed, *seconds)
				if err != nil {
					return err
				}
				for name, m := range res.Metrics {
					sets[set][name] = append(sets[set][name], m.Value)
				}
				fmt.Printf("%s set %c run %d seed %d done\n", w.name, 'A'+set, i, seed)
			}
		}
		for _, ms := range spec.EndToEnd {
			a, b := sets[0][ms.Name], sets[1][ms.Name]
			m := aaMetric{
				Workload: w.name, Metric: ms.Name, Unit: ms.Unit, Bound: ms.Bound, A: a, B: b,
				MedianA: median(a), MedianB: median(b), SpreadA: spreadPct(a), SpreadB: spreadPct(b),
			}
			m.DiffPct = math.Abs(m.MedianB-m.MedianA) / m.MedianA * 100
			spread := math.Max(m.SpreadA, m.SpreadB)
			if ms.Name == "setup_s" {
				spread = 0 // set-up's spread is not held to its bound
			}
			m.Pass = len(a) > 0 && m.DiffPct <= ms.Bound*100 && spread <= ms.Bound*100
			m.ThirdPass = spread <= ms.Bound*100/3
			report.Pass = report.Pass && m.Pass
			report.Metrics = append(report.Metrics, m)
			fmt.Printf("%-12s %-20s A %12.4f B %12.4f diff %5.2f%% spread %5.2f%% / %5.2f%% bound %4.1f%% %v\n",
				w.name, ms.Name, m.MedianA, m.MedianB, m.DiffPct, m.SpreadA, m.SpreadB, ms.Bound*100, m.Pass)
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(report, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if !report.Pass {
		return fmt.Errorf("two sets of runs of the same code disagree by more than the bounds")
	}
	return nil
}

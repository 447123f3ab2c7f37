package main

import (
	"math/rand"
	"time"
)

// workload is one traffic mix. The expected counter deltas per view are
// what defines it: a run whose counters disagree measured something else
// and fails.
type workload struct {
	name string
	// coldServer resets the SUT's retained state before every view.
	coldServer bool
	// freshPhone makes every view a brand-new device and session;
	// otherwise a fixed population of live sessions re-views pages.
	freshPhone bool
	// originDelay is added to every origin response.
	originDelay time.Duration
	// maxClients caps the closed-loop client count (also capped by nproc).
	maxClients int
	// entrySpan names the entry request in a traced run.
	entrySpan string
	// Per-view deltas of the SUT's work counters, and whether a view may
	// (and then must) reach the origin.
	adaptations, renders, reuses uint64
	originTraffic                bool
}

var workloads = []workload{
	{
		name:       "cold_build",
		coldServer: true, freshPhone: true, maxClients: 1, entrySpan: "proxy.entry_cold",
		adaptations: 1, renders: 1, originTraffic: true,
	},
	{
		name:       "cold_wan",
		coldServer: true, freshPhone: true, maxClients: 1, entrySpan: "proxy.entry_cold",
		originDelay: 40 * time.Millisecond,
		adaptations: 1, renders: 1, originTraffic: true,
	},
	{
		name: "new_session",
		// One client: two concurrent new devices coalesce into one bundle
		// load, which would make the work per view depend on timing.
		freshPhone: true, maxClients: 1, entrySpan: "proxy.entry_new_session",
		reuses: 1,
	},
	{
		name:       "warm_browse",
		maxClients: 2, entrySpan: "proxy.entry_warm",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Subpage names of the evaluation spec, sorted.
var subpageNames = []string{"forums", "login", "nav"}

// viewBlock is the ten views every block of the schedule consists of:
// two subpages per view, drawn so that a block opens forums, login and
// nav exactly 12, 6 and 2 times (weights 0.6 / 0.3 / 0.1). The seed
// decides only the order within a block, so every block, every round and
// every seed carries the same work.
var viewBlock = [][2]string{
	{"forums", "forums"}, {"forums", "forums"}, {"forums", "forums"},
	{"forums", "login"}, {"forums", "login"},
	{"login", "forums"}, {"login", "forums"},
	{"forums", "nav"}, {"nav", "forums"},
	{"login", "login"},
}

// shuffledBlock returns block in an order drawn from rng.
func shuffledBlock(block [][2]string, rng *rand.Rand) [][2]string {
	out := append([][2]string(nil), block...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

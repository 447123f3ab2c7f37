// Device-sim: the Table 1 wall-clock model, expanded.
//
// The paper compares a handful of device/link pairs; this example runs
// the full matrix — every device class against every link class — for
// both the direct page load and the cached-snapshot mobile entry page,
// making the crossover structure behind Table 1 visible.
//
// Run: go run ./examples/device-sim
package main

import (
	"fmt"
	"net/http/httptest"
	"os"
	"time"

	"msite/internal/device"
	"msite/internal/experiments"
	"msite/internal/netsim"
	"msite/internal/origin"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "device-sim:", err)
		os.Exit(1)
	}
}

func run() error {
	forum := origin.NewForum(origin.DefaultForumConfig())
	srv := httptest.NewServer(forum.Handler())
	defer srv.Close()

	url := srv.URL + "/"

	profile, err := experiments.ProfilePage(url)
	if err != nil {
		return err
	}
	direct := profile.Complexity
	// The cached snapshot entry page as the proxy serves a second device:
	// the overlay document and the snapshot it references.
	_, served, err := experiments.ServedEntry(url)
	if err != nil {
		return err
	}
	snapshot := served.Complexity

	fmt.Printf("origin entry page: %d bytes over %d requests, %d elements, %d scripts\n",
		direct.Bytes, direct.Requests, direct.Elements, direct.Scripts)
	fmt.Printf("served snapshot page: %d bytes over %d requests, %d elements\n\n",
		snapshot.Bytes, snapshot.Requests, snapshot.Elements)

	links := []netsim.Link{netsim.ThreeG, netsim.WiFi, netsim.Broadband}

	fmt.Println("== direct page load (wall-clock, simulated) ==")
	printMatrix(direct, links)

	fmt.Println("\n== cached snapshot entry page ==")
	printMatrix(snapshot, links)

	fmt.Println("\n== pre-render speedup per device on 3G ==")
	for _, p := range device.Profiles() {
		if !p.Mobile {
			continue
		}
		directT := wall(p, netsim.ThreeG, direct)
		snapT := wall(p, netsim.ThreeG, snapshot)
		fmt.Printf("%-18s %8s → %8s  (%.1fx)\n",
			p.Name, round(directT), round(snapT), float64(directT)/float64(snapT))
	}

	// Paper-faithful Table 1 for reference.
	rows, err := experiments.Table1(url)
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Print(experiments.FormatTable1(rows))
	return nil
}

func printMatrix(c device.PageComplexity, links []netsim.Link) {
	fmt.Printf("%-18s", "device \\ link")
	for _, l := range links {
		fmt.Printf("%12s", l.Name)
	}
	fmt.Println()
	for _, p := range device.Profiles() {
		fmt.Printf("%-18s", p.Name)
		for _, l := range links {
			fmt.Printf("%12s", round(wall(p, l, c)))
		}
		fmt.Println()
	}
}

func wall(p device.Profile, l netsim.Link, c device.PageComplexity) time.Duration {
	return l.TransferTime(c.Bytes, c.Requests) + p.ClientCPUTime(c)
}

func round(d time.Duration) string {
	return d.Round(100 * time.Millisecond).String()
}

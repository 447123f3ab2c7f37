// Codegen: the visual tool's output stage (§3.2).
//
// Where the paper's admin tool "generates a php file from shell template
// code" to act as the proxy for a page, this example builds a spec,
// generates the standalone Go proxy program for it, and prints the
// artifact. Pass -build to also compile it with the Go toolchain as
// proof the shell code is a working program.
//
// Run: go run ./examples/codegen [-build]
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"msite/internal/gen"
	"msite/internal/spec"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "codegen:", err)
		os.Exit(1)
	}
}

func run() error {
	build := flag.Bool("build", false, "also compile the generated proxy")
	flag.Parse()

	sp := &spec.Spec{
		Name: "sawdust", Origin: "http://localhost:8800/", ViewportWidth: 1024,
		Snapshot: spec.SnapshotSpec{
			Enabled: true, Fidelity: "low", Scale: 0.45, CacheTTLSeconds: 3600, Shared: true,
		},
		Objects: []spec.Object{
			{Name: "login", Selector: "#loginform", Attributes: []spec.Attribute{
				{Type: spec.AttrSubpage, Params: map[string]string{"title": "Log in"}},
			}},
			{Name: "banner", Selector: "#banner", Attributes: []spec.Attribute{
				{Type: spec.AttrRemove},
			}},
			{Name: "forums", Selector: "#forums", Attributes: []spec.Attribute{
				{Type: spec.AttrSubpage, Params: map[string]string{
					"title": "Forums", "prerender": "true", "fidelity": "low",
				}},
				{Type: spec.AttrCacheable, Params: map[string]string{"ttl_seconds": "3600"}},
			}},
		},
		Actions: []spec.Action{{
			ID: 1, Match: `do=showpic&id=(\d+)`, Target: "http://localhost:8800/site.php?do=showpic&id=$1",
			Extract: "#pic", CacheTTLSeconds: 300,
		}},
	}

	code, err := gen.GenerateProxyMain(sp, gen.Options{Timestamp: time.Now()})
	if err != nil {
		return err
	}

	fmt.Printf("generated %d bytes of proxy shell code; head:\n\n", len(code))
	lines := strings.SplitN(string(code), "\n", 16)
	for i := 0; i < len(lines)-1; i++ {
		fmt.Println("  " + lines[i])
	}
	fmt.Println("  ...")

	if !*build {
		fmt.Println("\n(re-run with -build to compile it)")
		return nil
	}

	root, err := moduleRoot()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(root, "generated_proxy_")
	if err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(dir) }()
	if err := os.WriteFile(filepath.Join(dir, "main.go"), code, 0o644); err != nil {
		return err
	}
	binPath := filepath.Join(dir, "proxy-bin")
	cmd := exec.Command("go", "build", "-o", binPath, "./"+filepath.Base(dir))
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("compiling generated proxy: %v\n%s", err, out)
	}
	info, err := os.Stat(binPath)
	if err != nil {
		return err
	}
	fmt.Printf("\ncompiled generated proxy: %s (%d bytes)\n", binPath, info.Size())
	return nil
}

func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("go.mod not found above %s", dir)
		}
		dir = parent
	}
}

// Command msite-admin is the headless administrator tool: inspect a live
// page's selectable objects (the visual tool's inventory), detect a
// fragment's intra-page dependencies, and validate adaptation specs.
//
// Usage:
//
//	msite-admin inspect http://localhost:8800/
//	msite-admin deps http://localhost:8800/ "#loginform"
//	msite-admin validate spec.json
//	msite-admin example http://localhost:8800 > spec.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"msite/internal/admin"
	"msite/internal/experiments"
	"msite/internal/fetch"
	"msite/internal/html"
	"msite/internal/spec"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "msite-admin:", err)
		os.Exit(1)
	}
}

// run executes one subcommand with the command-line arguments args,
// writing its report to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("msite-admin", flag.ExitOnError)
	width := fs.Int("width", 1024, "render width for coordinates")
	_ = fs.Parse(args) // a bad flag exits, as flag.Parse does
	args = fs.Args()
	if len(args) < 1 {
		return fmt.Errorf("usage: msite-admin [-width N] inspect|deps|validate|example ...")
	}
	switch args[0] {
	case "inspect":
		if len(args) != 2 {
			return fmt.Errorf("usage: msite-admin inspect <url>")
		}
		return inspect(out, args[1], *width)
	case "deps":
		if len(args) != 3 {
			return fmt.Errorf("usage: msite-admin deps <url> <selector>")
		}
		return deps(out, args[1], args[2])
	case "validate":
		if len(args) != 2 {
			return fmt.Errorf("usage: msite-admin validate <spec.json>")
		}
		return validate(out, args[1])
	case "example":
		if len(args) != 2 {
			return fmt.Errorf("usage: msite-admin example <origin-url>")
		}
		return example(out, args[1])
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

// fetchPage downloads a page with the proxy's fetcher, so its timeout,
// body cap and status errors hold here too.
func fetchPage(url string) (string, error) {
	page, err := fetch.New(nil).Get(url)
	if err != nil {
		return "", err
	}
	return string(page.Body), nil
}

func inspect(out io.Writer, url string, width int) error {
	src, err := fetchPage(url)
	if err != nil {
		return err
	}
	objects := admin.Inspect(src, width)
	fmt.Fprintf(out, "%-28s %-24s %-10s %s\n", "SELECTOR", "REGION", "KIND", "PREVIEW")
	for _, o := range objects {
		sel := o.Selector
		if sel == "" {
			sel = o.XPath
		}
		kind := "visual"
		region := fmt.Sprintf("%d,%d %dx%d", o.Region.X, o.Region.Y, o.Region.W, o.Region.H)
		if o.NonVisual {
			kind = "dock"
			region = "-"
		}
		preview := o.TextPreview
		if len(preview) > 40 {
			preview = preview[:40]
		}
		fmt.Fprintf(out, "%-28s %-24s %-10s %s\n", sel, region, kind, preview)
	}
	return nil
}

func deps(out io.Writer, url, selector string) error {
	src, err := fetchPage(url)
	if err != nil {
		return err
	}
	doc := html.Tidy(src)
	paths, err := admin.DetectDependencies(doc, selector)
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		fmt.Fprintln(out, "no intra-page dependencies detected")
		return nil
	}
	fmt.Fprintf(out, "dependencies of %s:\n", selector)
	for _, p := range paths {
		fmt.Fprintln(out, " ", p)
	}
	return nil
}

func validate(out io.Writer, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	sp, err := spec.Parse(data)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "spec %q valid: %d objects, %d filters, %d actions\n",
		sp.Name, len(sp.Objects), len(sp.Filters), len(sp.Actions))
	return nil
}

func example(out io.Writer, originURL string) error {
	sp := experiments.SpecForForum(originURL)
	data, err := sp.JSON()
	if err != nil {
		return err
	}
	_, err = out.Write(append(data, '\n'))
	return err
}

package quality

import (
	"fmt"
	"sort"
	"strings"

	"msite/internal/dom"
	"msite/internal/spec"
)

// MinTextLen is the shortest normalized text block the inventory counts.
// Shorter runs are separators, icons, and single-word labels whose loss
// is not a content regression.
const MinTextLen = 12

// diffSample caps how many missing items a Parity report carries per
// category; the counts are always exact.
const diffSample = 8

// Inventory is a multiset of the user-visible content in a DOM tree:
// text blocks, links, and form controls. Keys are normalized so the
// same content found in the origin and in the adaptation compares
// equal even after restructuring.
type Inventory struct {
	// Text maps whitespace-normalized text blocks (>= MinTextLen) to
	// occurrence counts.
	Text map[string]int
	// Links maps "href|text" to occurrence counts.
	Links map[string]int
	// Forms maps "tag:type:name" to occurrence counts.
	Forms map[string]int
}

// NewInventory returns an empty inventory.
func NewInventory() *Inventory {
	return &Inventory{
		Text:  make(map[string]int),
		Links: make(map[string]int),
		Forms: make(map[string]int),
	}
}

// InventoryOf inventories every given root. Passing the adapted entry
// document plus every subpage document inventories the full adapted
// closure — content moved to a subpage still counts as retained.
func InventoryOf(roots ...*dom.Node) *Inventory {
	inv := NewInventory()
	for _, r := range roots {
		if r != nil {
			inv.Add(r)
		}
	}
	return inv
}

func normText(s string) string {
	return strings.Join(strings.Fields(s), " ")
}

// Add walks root and records its content. Script, style, and noscript
// subtrees are code, not copy, and are skipped.
func (inv *Inventory) Add(root *dom.Node) {
	root.Walk(func(n *dom.Node) bool {
		switch n.Type {
		case dom.ElementNode:
			switch n.Tag {
			case "script", "style", "noscript":
				return false
			case "a":
				if href := n.AttrOr("href", ""); href != "" {
					inv.Links[href+"|"+normText(n.Text())]++
				}
			case "input":
				typ := strings.ToLower(n.AttrOr("type", "text"))
				if typ != "hidden" {
					inv.Forms["input:"+typ+":"+n.AttrOr("name", "")]++
				}
			case "select", "textarea", "button":
				inv.Forms[n.Tag+"::"+n.AttrOr("name", "")]++
			}
		case dom.TextNode:
			if t := normText(n.Data); len(t) >= MinTextLen {
				inv.Text[t]++
			}
		}
		return true
	})
}

// Subtract removes other's counts from inv, dropping keys that reach
// zero — used to exempt sanctioned drops from the origin inventory.
func (inv *Inventory) Subtract(other *Inventory) {
	sub := func(dst, src map[string]int) {
		for k, n := range src {
			if dst[k] -= n; dst[k] <= 0 {
				delete(dst, k)
			}
		}
	}
	sub(inv.Text, other.Text)
	sub(inv.Links, other.Links)
	sub(inv.Forms, other.Forms)
}

// Total returns the number of distinct inventory items.
func (inv *Inventory) Total() int {
	return len(inv.Text) + len(inv.Links) + len(inv.Forms)
}

// SanctionedInventory inventories the origin subtrees the spec
// deliberately drops or re-renders — remove, replace-with-markup,
// thumbnail, and pre-rendered/partial-CSS subpages (whose content
// survives as a rendered image and search index, not DOM text). The
// result is subtracted from the origin inventory so administrator
// intent never reads as a parity failure.
func SanctionedInventory(sp *spec.Spec, origin *dom.Node) *Inventory {
	inv := NewInventory()
	if sp == nil || origin == nil {
		return inv
	}
	for _, obj := range sp.Objects {
		sanctioned := false
		for _, at := range obj.Attributes {
			switch at.Type {
			case spec.AttrRemove, spec.AttrThumbnail, spec.AttrPreRender, spec.AttrPartialCSS:
				sanctioned = true
			case spec.AttrSubpage:
				// Pre-rendering can also ride as a subpage param.
				sanctioned = sanctioned || at.Param("prerender", "") == "true"
			case spec.AttrReplace:
				sanctioned = sanctioned || at.Param("html", "") != ""
			}
		}
		if !sanctioned {
			continue
		}
		// A resolution error yields no nodes; the attr pass itself
		// surfaces it.
		nodes, _ := obj.Locate(origin)
		for _, n := range nodes {
			inv.Add(n)
		}
	}
	return inv
}

// Parity is the result of comparing an origin inventory against the
// adapted closure's inventory. Score is presence-based: the fraction of
// distinct origin items still present anywhere in the adaptation.
type Parity struct {
	Score        float64 `json:"score"`
	TotalItems   int     `json:"total_items"`
	MissingItems int     `json:"missing_items"`
	TextMissing  int     `json:"text_missing"`
	LinksMissing int     `json:"links_missing"`
	FormsMissing int     `json:"forms_missing"`
	// Samples of missing items, capped at diffSample per category.
	MissingText  []string `json:"missing_text,omitempty"`
	MissingLinks []string `json:"missing_links,omitempty"`
	MissingForms []string `json:"missing_forms,omitempty"`
}

// Compare scores how much of origin's content adapted retains.
func Compare(origin, adapted *Inventory) *Parity {
	p := &Parity{Score: 1, TotalItems: origin.Total()}
	missing := func(o, a map[string]int) (int, []string) {
		var keys []string
		for k := range o {
			if a[k] == 0 {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		count := len(keys)
		if len(keys) > diffSample {
			keys = keys[:diffSample]
		}
		for i, k := range keys {
			if len(k) > 96 {
				keys[i] = k[:96] + "…"
			}
		}
		return count, keys
	}
	p.TextMissing, p.MissingText = missing(origin.Text, adapted.Text)
	p.LinksMissing, p.MissingLinks = missing(origin.Links, adapted.Links)
	p.FormsMissing, p.MissingForms = missing(origin.Forms, adapted.Forms)
	p.MissingItems = p.TextMissing + p.LinksMissing + p.FormsMissing
	if p.TotalItems > 0 {
		p.Score = float64(p.TotalItems-p.MissingItems) / float64(p.TotalItems)
	}
	return p
}

// Ok reports whether the parity score meets the threshold.
func (p *Parity) Ok(min float64) bool { return p.Score >= min }

// Notes renders the report as pipeline note strings: a summary line
// plus one line per missing-item sample.
func (p *Parity) Notes() []string {
	notes := []string{fmt.Sprintf(
		"parity: score %.4f (%d/%d items retained; missing %d text, %d links, %d forms)",
		p.Score, p.TotalItems-p.MissingItems, p.TotalItems,
		p.TextMissing, p.LinksMissing, p.FormsMissing)}
	for _, s := range p.MissingText {
		notes = append(notes, "parity: missing text: "+s)
	}
	for _, s := range p.MissingLinks {
		notes = append(notes, "parity: missing link: "+s)
	}
	for _, s := range p.MissingForms {
		notes = append(notes, "parity: missing form control: "+s)
	}
	return notes
}

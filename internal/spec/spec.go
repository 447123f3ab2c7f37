// Package spec defines the adaptation specification: the durable artifact
// the visual admin tool emits and the code generator and proxy consume.
// A Spec captures which page objects the administrator selected and which
// attributes (§3.3) were assigned to each, plus source-level filters and
// AJAX action rewrites. It is the contract between m.Site's two halves.
package spec

import (
	"encoding/json"
	"errors"
	"fmt"
	"regexp"

	"msite/internal/css"
	"msite/internal/dom"
	"msite/internal/xpath"
)

// AttrType enumerates the attribute vocabulary of §3.3.
type AttrType string

// The attribute vocabulary. Each constant corresponds to one technique
// described in the paper's attribute system.
const (
	// AttrSubpage splits the object into its own page (§3.3 "Page
	// splitting"). Params: "title"; "prerender" ("true" renders the
	// subpage to an image); "ajax" ("true" loads the subpage into a div
	// asynchronously, §4.3); "parent" (name of an enclosing subpage, for
	// §3.3 "Sub-subpages").
	AttrSubpage AttrType = "subpage"
	// AttrPreRender renders the object server-side into a single graphic
	// (§3.3 "Pre-rendering"). Params: "fidelity" (high|medium|low|thumb).
	AttrPreRender AttrType = "prerender"
	// AttrRemove strips the object from the source completely.
	AttrRemove AttrType = "remove"
	// AttrHide hides the object via CSS style properties.
	AttrHide AttrType = "hide"
	// AttrReplace replaces the object. Params: "html" (replacement
	// markup) or "attr"+"value" (rewrite one attribute, e.g. a logo's
	// src to a mobile-specific version, §4.3).
	AttrReplace AttrType = "replace"
	// AttrRelocate moves the object. Params: "target" (selector),
	// "position" (append|prepend|before|after).
	AttrRelocate AttrType = "relocate"
	// AttrCopyTo duplicates the object into a subpage (§3.3 "Object
	// dependencies": logo box copied to the login subpage). Params:
	// "subpage" (name), "position" (top|bottom).
	AttrCopyTo AttrType = "copy-to"
	// AttrDependency marks the object (CSS/JS) as a dependency of a
	// subpage; it is pulled into that subpage's head. Params: "subpage".
	AttrDependency AttrType = "dependency"
	// AttrInsertHTML inserts markup relative to the object. Params:
	// "html", "position" (before|after|prepend|append).
	AttrInsertHTML AttrType = "insert-html"
	// AttrInsertJS inserts a script (§3.3 "Javascript insertion"). Params:
	// "code", "stage" ("server" manipulates the DOM before rendering;
	// "client" ships to the device).
	AttrInsertJS AttrType = "insert-js"
	// AttrRemoveJS strips script elements inside the object.
	AttrRemoveJS AttrType = "remove-js"
	// AttrImageFidelity routes the object's rendered image through the
	// post-processor (§3.3 "Image fidelity"). Params: "fidelity",
	// "maxwidth".
	AttrImageFidelity AttrType = "image-fidelity"
	// AttrSearchable builds a word index over the pre-rendered object and
	// ships a binary-search overlay (§3.3 "Search"). Params: "trigger"
	// (id of the element that invokes search).
	AttrSearchable AttrType = "searchable"
	// AttrCacheable is §3.3 "Object caching". It is accepted and changes
	// nothing: every object of an anonymous build is already shared across
	// sessions through its Bundle. Its "ttl_seconds" is not read.
	AttrCacheable AttrType = "cacheable"
	// AttrAJAXify rewrites the object's asynchronous calls to proxy
	// actions (§4.4). Params: "actions" (comma-separated action IDs, or
	// empty for all).
	AttrAJAXify AttrType = "ajaxify"
	// AttrPartialCSS pre-renders the object's graphical component on the
	// server while leaving text to the client (§3.3 "Partial CSS
	// rendering").
	AttrPartialCSS AttrType = "partial-css"
	// AttrHTTPAuth marks the object's area as HTTP-authenticated; the
	// proxy interposes the lightweight auth page (§3.3).
	AttrHTTPAuth AttrType = "http-auth"
	// AttrRewriteLinks restructures a horizontal link bar into vertical
	// columns (§4.3 nav-links transform). Params: "columns".
	AttrRewriteLinks AttrType = "rewrite-links"
	// AttrThumbnail replaces a rich-media object (Flash, video, large
	// image) with a low-fidelity thumbnail snapshot of its rendered
	// region, linked to the original — the paper's "thumbnail snapshots
	// of rich media content for resource-constrained devices". Params:
	// "scale" (default 0.5), "fidelity" (high|medium|low, default low), "href"
	// (link target; default the element's own src).
	AttrThumbnail AttrType = "thumbnail"
	// AttrRepair runs the mobile-repair rule pass (internal/quality) over
	// the object's subtree: viewport meta injection, fixed-width
	// rewrites, touch-target sizing, font floor. Params: "rules"
	// (comma-separated rule names, default "all"). A "device" param is
	// refused: per-device variants are parked.
	AttrRepair AttrType = "repair"
)

// knownAttrs validates attribute types on load.
var knownAttrs = map[AttrType]bool{
	AttrSubpage: true, AttrPreRender: true, AttrRemove: true, AttrHide: true,
	AttrReplace: true, AttrRelocate: true, AttrCopyTo: true,
	AttrDependency: true, AttrInsertHTML: true, AttrInsertJS: true,
	AttrRemoveJS: true, AttrImageFidelity: true, AttrSearchable: true,
	AttrCacheable: true, AttrAJAXify: true, AttrPartialCSS: true,
	AttrHTTPAuth: true, AttrRewriteLinks: true, AttrThumbnail: true,
	AttrRepair: true,
}

// Attribute is one attribute assignment with its parameters.
type Attribute struct {
	Type   AttrType          `json:"type"`
	Params map[string]string `json:"params,omitempty"`
}

// Param returns a parameter with a default.
func (a Attribute) Param(key, def string) string {
	if v, ok := a.Params[key]; ok {
		return v
	}
	return def
}

// Object is one administrator-selected page object. Exactly one of
// Selector or XPath identifies it (§3.2 "Object identification": both
// CSS 3 selectors and XPath are supported).
type Object struct {
	Name       string      `json:"name"`
	Selector   string      `json:"selector,omitempty"`
	XPath      string      `json:"xpath,omitempty"`
	Attributes []Attribute `json:"attributes"`
}

// HasAttr reports whether the object carries an attribute of the type.
func (o Object) HasAttr(t AttrType) bool {
	_, ok := o.Attr(t)
	return ok
}

// Attr returns the first attribute of the given type.
func (o Object) Attr(t AttrType) (Attribute, bool) {
	for _, a := range o.Attributes {
		if a.Type == t {
			return a, true
		}
	}
	return Attribute{}, false
}

// Locate resolves the object's nodes under doc: by its CSS selector
// list, or by its XPath when it has no selector.
func (o Object) Locate(doc *dom.Node) ([]*dom.Node, error) {
	if o.Selector != "" {
		return css.Select(doc, o.Selector)
	}
	expr, err := xpath.Compile(o.XPath)
	if err != nil {
		return nil, err
	}
	return expr.Select(doc), nil
}

// Filter is one source-level filter (§3.2 "filter phase"), applied to raw
// HTML before any DOM parse.
type Filter struct {
	// Type is one of: doctype, title, strip-scripts, strip-css,
	// rewrite-images, replace.
	Type   string            `json:"type"`
	Params map[string]string `json:"params,omitempty"`
}

// Action is one AJAX rewrite rule (§4.4): client-side calls whose code
// matches Match are replaced by calls to proxy?action=ID&p=<capture>; at
// dispatch time the proxy fetches Target (with $1..$9 substituted from
// the capture groups) and returns the fragment selected by Extract.
type Action struct {
	ID      int    `json:"id"`
	Match   string `json:"match"`
	Target  string `json:"target"`
	Extract string `json:"extract,omitempty"`
	// CacheTTLSeconds shares fetched fragments across clients.
	CacheTTLSeconds int `json:"cache_ttl_seconds,omitempty"`
}

// SnapshotSpec configures the mobile entry page: a cached, scaled,
// low-fidelity snapshot of the full site overlaid with an image map
// (§4.3).
type SnapshotSpec struct {
	Enabled bool `json:"enabled"`
	// Fidelity is high|medium|low|thumb (default low).
	Fidelity string `json:"fidelity,omitempty"`
	// Scale shrinks the snapshot so the user need not zoom (default 1).
	Scale float64 `json:"scale,omitempty"`
	// CacheTTLSeconds shares the snapshot across sessions; the paper's
	// deployment uses 3600 (60 minutes).
	CacheTTLSeconds int `json:"cache_ttl_seconds,omitempty"`
	// Shared stores the snapshot in the public cache rather than
	// per-user.
	Shared bool `json:"shared,omitempty"`
}

// LoginSpec configures origin form-login marshaling: the proxy presents
// a mobile-friendly login form and replays the credentials against the
// origin with the user's cookie jar, so the session becomes
// authenticated on the origin (§3.2 "the proxy itself must be
// authenticated on behalf of the user to view content privy to that
// user").
type LoginSpec struct {
	// URL is the origin's login form action; empty disables the proxy
	// login route.
	URL string `json:"url,omitempty"`
	// UserField and PassField are the origin's form field names
	// (defaults "username" / "password").
	UserField string `json:"user_field,omitempty"`
	PassField string `json:"pass_field,omitempty"`
}

// CurrentVersion is the spec format version this build writes.
const CurrentVersion = 1

// Spec is a complete adaptation specification for one origin page.
type Spec struct {
	// Version is the format version; zero is treated as CurrentVersion
	// for back-compat with early specs.
	Version       int          `json:"version,omitempty"`
	Name          string       `json:"name"`
	Origin        string       `json:"origin"`
	ViewportWidth int          `json:"viewport_width,omitempty"`
	Snapshot      SnapshotSpec `json:"snapshot"`
	// MinimalMarkup selects the MAML-style output mode: the entry page is
	// served as compact layout-only markup (headings, text, links — no
	// images, scripts, or styling) for 2G-class links, instead of the
	// graphical snapshot overlay.
	MinimalMarkup bool      `json:"minimal_markup,omitempty"`
	Login         LoginSpec `json:"login,omitempty"`
	Objects       []Object  `json:"objects,omitempty"`
	Filters       []Filter  `json:"filters,omitempty"`
	Actions       []Action  `json:"actions,omitempty"`
}

// FindObject returns the named object.
func (s *Spec) FindObject(name string) (Object, bool) {
	for _, o := range s.Objects {
		if o.Name == name {
			return o, true
		}
	}
	return Object{}, false
}

// FindAction returns the action with the given ID.
func (s *Spec) FindAction(id int) (Action, bool) {
	for _, a := range s.Actions {
		if a.ID == id {
			return a, true
		}
	}
	return Action{}, false
}

// validFilterTypes guards the filter phase vocabulary.
var validFilterTypes = map[string]bool{
	"doctype": true, "title": true, "strip-scripts": true,
	"strip-css": true, "rewrite-images": true, "replace": true,
}

// Validate checks structural integrity: object names unique, non-empty
// and not the reserved "snapshot", identifiers parseable, attribute and filter types known,
// action regexes compilable, and cross-references (copy-to/dependency
// subpage names) resolvable.
func (s *Spec) Validate() error {
	if s.Version != 0 && s.Version != CurrentVersion {
		return fmt.Errorf("spec: unsupported version %d (this build reads version %d)", s.Version, CurrentVersion)
	}
	if s.Name == "" {
		return errors.New("spec: missing name")
	}
	if s.Origin == "" {
		return errors.New("spec: missing origin URL")
	}
	names := make(map[string]bool)
	subpages := make(map[string]bool)
	for _, o := range s.Objects {
		if o.Name == "" {
			return errors.New("spec: object with empty name")
		}
		if names[o.Name] {
			return fmt.Errorf("spec: duplicate object name %q", o.Name)
		}
		if o.Name == "snapshot" {
			// Its pre-render would be named like the entry snapshot.
			return errors.New(`spec: object name "snapshot" is reserved for the entry snapshot`)
		}
		names[o.Name] = true
		if (o.Selector == "") == (o.XPath == "") {
			return fmt.Errorf("spec: object %q must set exactly one of selector or xpath", o.Name)
		}
		if o.Selector != "" {
			if _, err := css.ParseSelectorList(o.Selector); err != nil {
				return fmt.Errorf("spec: object %q: %w", o.Name, err)
			}
		}
		if o.XPath != "" {
			if _, err := xpath.Compile(o.XPath); err != nil {
				return fmt.Errorf("spec: object %q: %w", o.Name, err)
			}
		}
		for _, a := range o.Attributes {
			if !knownAttrs[a.Type] {
				return fmt.Errorf("spec: object %q: unknown attribute type %q", o.Name, a.Type)
			}
			if a.Type == AttrSubpage {
				subpages[o.Name] = true
			}
		}
	}
	for _, o := range s.Objects {
		for _, a := range o.Attributes {
			switch a.Type {
			case AttrCopyTo, AttrDependency:
				target := a.Param("subpage", "")
				if target == "" {
					return fmt.Errorf("spec: object %q: %s requires a subpage param", o.Name, a.Type)
				}
				if !subpages[target] {
					return fmt.Errorf("spec: object %q: %s references unknown subpage %q", o.Name, a.Type, target)
				}
			case AttrRelocate:
				if a.Param("target", "") == "" {
					return fmt.Errorf("spec: object %q: relocate requires a target", o.Name)
				}
			case AttrRepair:
				if _, ok := a.Params["device"]; ok {
					return fmt.Errorf("spec: object %q: repair takes no device param (per-device variants are parked)", o.Name)
				}
			}
		}
	}
	for _, f := range s.Filters {
		if !validFilterTypes[f.Type] {
			return fmt.Errorf("spec: unknown filter type %q", f.Type)
		}
	}
	actionIDs := make(map[int]bool)
	for _, a := range s.Actions {
		if actionIDs[a.ID] {
			return fmt.Errorf("spec: duplicate action id %d", a.ID)
		}
		actionIDs[a.ID] = true
		if a.Match == "" || a.Target == "" {
			return fmt.Errorf("spec: action %d needs match and target", a.ID)
		}
		if _, err := regexp.Compile(a.Match); err != nil {
			return fmt.Errorf("spec: action %d match: %w", a.ID, err)
		}
		if a.Extract != "" {
			if _, err := css.ParseSelectorList(a.Extract); err != nil {
				return fmt.Errorf("spec: action %d extract: %w", a.ID, err)
			}
		}
	}
	if s.Snapshot.Enabled {
		switch s.Snapshot.Fidelity {
		case "", "high", "medium", "low", "thumb":
		default:
			return fmt.Errorf("spec: unknown snapshot fidelity %q", s.Snapshot.Fidelity)
		}
		if s.Snapshot.Scale < 0 || s.Snapshot.Scale > 4 {
			return fmt.Errorf("spec: snapshot scale %v out of range", s.Snapshot.Scale)
		}
	}
	return nil
}

// JSON serializes the spec, stamping the current format version.
func (s *Spec) JSON() ([]byte, error) {
	out := *s
	if out.Version == 0 {
		out.Version = CurrentVersion
	}
	data, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("spec: marshaling: %w", err)
	}
	return data, nil
}

// Parse deserializes and validates a spec.
func Parse(data []byte) (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("spec: parsing: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

package attr

import (
	"net/url"
	"strings"

	"msite/internal/dom"
)

// urlAttrs are the attributes that carry URLs per tag.
var urlAttrs = map[string][]string{
	"a":      {"href"},
	"area":   {"href"},
	"img":    {"src"},
	"iframe": {"src"},
	"embed":  {"src"},
	"object": {"data"},
	"form":   {"action"},
	"input":  {"src"},
	"link":   {"href"},
	"script": {"src"},
	"video":  {"src", "poster"},
	"audio":  {"src"},
	"source": {"src"},
}

// AbsolutizeURLs rewrites origin-relative URL attributes in doc against
// base, so adapted pages served from the proxy host keep working: a
// forum's href="/forumdisplay.php?f=2" becomes the absolute origin URL
// instead of dangling against the proxy. Proxy-internal references
// (those starting with any of skipPrefixes), anchors, javascript:, data:,
// and already-absolute URLs are left alone. Returns the rewrite count.
func AbsolutizeURLs(doc *dom.Node, base string, skipPrefixes ...string) int {
	baseURL, err := url.Parse(base)
	if err != nil || baseURL.Host == "" {
		return 0
	}
	// origin is the base's scheme://authority as net/url writes it, which
	// a value plainPath accepts resolves to with the value appended.
	root, err := baseURL.Parse("/")
	if err != nil {
		return 0
	}
	origin := strings.TrimSuffix(root.String(), "/")

	// The plain values' absolute forms are written into one string that
	// their attributes slice: a first pass sizes it, so writing it takes
	// one allocation.
	size := 0
	eachURL(doc, skipPrefixes, func(_ *dom.Node, _, val string) {
		if plainPath(val) {
			size += len(origin) + len(val)
		}
	})
	var arena strings.Builder
	arena.Grow(size)
	count := 0
	eachURL(doc, skipPrefixes, func(n *dom.Node, key, val string) {
		var abs string
		if plainPath(val) {
			start := arena.Len()
			arena.WriteString(origin)
			arena.WriteString(val)
			abs = arena.String()[start:]
		} else {
			u, err := baseURL.Parse(val)
			if err != nil {
				return
			}
			abs = u.String()
		}
		n.SetAttr(key, abs)
		count++
	})
	return count
}

// eachURL calls fn with every URL attribute in doc that needs
// absolutizing.
func eachURL(doc *dom.Node, skipPrefixes []string, fn func(n *dom.Node, key, val string)) {
	doc.Walk(func(n *dom.Node) bool {
		if n.Type != dom.ElementNode {
			return true
		}
		for _, key := range urlAttrs[n.Tag] {
			if val, ok := n.Attr(key); ok && needsAbsolutizing(val, skipPrefixes) {
				fn(n, key, val)
			}
		}
		return true
	})
}

// plainPath reports whether val is an origin-relative URL that net/url
// resolves against any base with a host to that base's scheme://authority
// followed by val unchanged: it starts with exactly one '/', has no '.'
// or '..' segment, no '%', '#' or '\', no space, control or non-ASCII
// byte, and its path, up to any '?', has only bytes net/url never
// escapes in a path.
func plainPath(val string) bool {
	if val == "" || val[0] != '/' || strings.HasPrefix(val, "//") {
		return false
	}
	pathEnd := strings.IndexByte(val, '?')
	if pathEnd < 0 {
		pathEnd = len(val)
	}
	for i := 0; i < len(val); i++ {
		c := val[i]
		if c <= ' ' || c >= 0x7f || c == '%' || c == '#' || c == '\\' {
			return false
		}
		if i < pathEnd && !unescapedPathByte(c) {
			return false
		}
	}
	for rest, more := val[1:pathEnd], true; more; {
		var seg string
		seg, rest, more = strings.Cut(rest, "/")
		if seg == "." || seg == ".." {
			return false
		}
	}
	return true
}

// unescapedPathByte reports whether net/url writes c in a URL path as
// itself.
func unescapedPathByte(c byte) bool {
	switch {
	case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		return true
	}
	return strings.IndexByte("-_.~$&+,/:;=@", c) >= 0
}

// absoluteSchemes are the schemes of values left as they are, matched
// without regard to case.
var absoluteSchemes = [...]string{"http:", "https:", "javascript:", "data:", "mailto:", "tel:"}

func needsAbsolutizing(val string, skipPrefixes []string) bool {
	if val == "" || strings.HasPrefix(val, "#") {
		return false
	}
	for _, scheme := range absoluteSchemes {
		if len(val) >= len(scheme) && strings.EqualFold(val[:len(scheme)], scheme) {
			return false
		}
	}
	if strings.HasPrefix(val, "//") {
		return false // protocol-relative: already origin-qualified
	}
	for _, p := range skipPrefixes {
		if p == "" {
			continue
		}
		if val == p {
			return false
		}
		if strings.HasPrefix(val, p) {
			// Only skip at a path boundary: "/login" must not swallow the
			// origin's "/login.php".
			if strings.HasSuffix(p, "/") {
				return false
			}
			switch val[len(p)] {
			case '/', '?', '#':
				return false
			}
		}
	}
	return true
}

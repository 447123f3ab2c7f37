// Package ajax implements m.Site's AJAX support (§4.4): rather than
// keeping a remote browser per client, the proxy rewrites the
// asynchronous calls embedded in origin markup into static calls of the
// form proxy?action=N&p=M, and registers a server-side handler per
// action that fetches the origin resource, extracts the fragment its
// selector names, and returns the fragment as the AJAX response.
package ajax

import (
	"context"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"time"

	"msite/internal/cache"
	"msite/internal/css"
	"msite/internal/dom"
	"msite/internal/fetch"
	"msite/internal/html"
	"msite/internal/spec"
)

// DefaultEndpoint is the proxy path AJAX rewrites target.
const DefaultEndpoint = "/ajax"

// Rewriter rewrites origin documents against a set of action rules.
type Rewriter struct {
	// Endpoint is the proxy URL prefix (default /ajax).
	Endpoint string

	actions []compiledAction
}

type compiledAction struct {
	spec spec.Action
	re   *regexp.Regexp
}

// NewRewriter compiles the actions. Invalid regexes fail here rather
// than at request time.
func NewRewriter(actions []spec.Action, endpoint string) (*Rewriter, error) {
	if endpoint == "" {
		endpoint = DefaultEndpoint
	}
	r := &Rewriter{Endpoint: endpoint}
	for _, a := range actions {
		re, err := regexp.Compile(a.Match)
		if err != nil {
			return nil, fmt.Errorf("ajax: compiling action %d: %w", a.ID, err)
		}
		r.actions = append(r.actions, compiledAction{spec: a, re: re})
	}
	return r, nil
}

// ProxyCall builds the rewritten call URL for an action and parameter.
func (r *Rewriter) ProxyCall(actionID int, param string) string {
	return fmt.Sprintf("%s?action=%d&p=%s", r.Endpoint, actionID, urlEscape(param))
}

// RewriteDoc scans event-handler and href attributes under root for
// action matches and rewrites them into proxy calls. It returns how many
// attributes were rewritten.
//
// The first capture group of the action's Match becomes the p parameter,
// mirroring the paper's example where
// $("#picframe").load('site.php?do=showpic&id=1') becomes
// proxy.php?action=1&p=1.
func (r *Rewriter) RewriteDoc(root *dom.Node) int {
	count := 0
	attrs := []string{"onclick", "onchange", "onsubmit", "href", "data-load"}
	root.Walk(func(n *dom.Node) bool {
		if n.Type != dom.ElementNode {
			return true
		}
		for _, key := range attrs {
			val, ok := n.Attr(key)
			if !ok || val == "" {
				continue
			}
			for _, ca := range r.actions {
				m := ca.re.FindStringSubmatch(val)
				if m == nil {
					continue
				}
				param := ""
				if len(m) > 1 {
					param = m[1]
				}
				call := r.ProxyCall(ca.spec.ID, param)
				switch key {
				case "href":
					n.SetAttr("href", call)
					// Promote full-page links into asynchronous loads on
					// AJAX-capable clients.
					n.SetAttr("onclick", "return msiteLoad('"+call+"');")
				default:
					n.SetAttr(key, "return msiteLoad('"+call+"');")
				}
				count++
				break
			}
		}
		return true
	})
	return count
}

// ClientRuntimeJS is injected once per adapted page, and into every entry
// overlay with an AJAX subpage: msiteLoad fetches a proxy action response
// or a subpage into the target div ("#msite-pane") without a page reload,
// and navigates to it where the page has no pane. It ships minified.
const ClientRuntimeJS = `function msiteLoad(u){var p=document.getElementById("msite-pane"),x;if(!p){window.location=u;return false}x=new XMLHttpRequest;x.open("GET",u,true);x.onreadystatechange=function(){if(x.readyState==4&&x.status==200){p.innerHTML=x.responseText;p.style.display="block"}};x.send(null);return false}`

// InjectRuntime adds the client runtime script and the response pane div
// to a document, once.
func InjectRuntime(doc *dom.Node) {
	body := doc.Body()
	if body == nil {
		return
	}
	if doc.ElementByID("msite-pane") == nil {
		pane := dom.NewElement("div")
		pane.SetAttr("id", "msite-pane")
		pane.SetAttr("style", "display: none")
		body.AppendChild(pane)
	}
	already := doc.FindFirst(func(n *dom.Node) bool {
		return n.Tag == "script" && n.AttrOr("data-msite", "") == "runtime"
	})
	if already == nil {
		script := dom.NewElement("script")
		script.SetAttr("type", "text/javascript")
		script.SetAttr("data-msite", "runtime")
		script.AppendChild(dom.NewText(ClientRuntimeJS))
		body.AppendChild(script)
	}
}

// Dispatcher satisfies rewritten calls on the server side.
type Dispatcher struct {
	actions map[int]compiledAction
	cache   cache.Layer
}

// NewDispatcher builds a dispatcher over the same action set. cache may
// be nil to disable fragment sharing.
func NewDispatcher(actions []spec.Action, c cache.Layer) (*Dispatcher, error) {
	d := &Dispatcher{actions: make(map[int]compiledAction), cache: c}
	for _, a := range actions {
		re, err := regexp.Compile(a.Match)
		if err != nil {
			return nil, fmt.Errorf("ajax: compiling action %d: %w", a.ID, err)
		}
		d.actions[a.ID] = compiledAction{spec: a, re: re}
	}
	return d, nil
}

// Dispatch runs action id with parameter p on behalf of a session: fetch
// the target (substituting $1), extract the configured fragment, and
// return the HTML fragment bytes. Shared fragments are cached across
// clients per the action's TTL.
func (d *Dispatcher) Dispatch(f *fetch.Fetcher, id int, p string) ([]byte, error) {
	return d.DispatchContext(context.Background(), f, id, p)
}

// DispatchContext is Dispatch bound to a caller deadline/cancellation:
// the origin fetch behind the action aborts when ctx ends.
func (d *Dispatcher) DispatchContext(ctx context.Context, f *fetch.Fetcher, id int, p string) ([]byte, error) {
	ca, ok := d.actions[id]
	if !ok {
		return nil, fmt.Errorf("ajax: unknown action %d", id)
	}
	target := substituteParam(ca.spec.Target, p)
	fill := func() (cache.Entry, error) {
		page, err := f.GetContext(ctx, target)
		if err != nil {
			return cache.Entry{}, fmt.Errorf("ajax: action %d fetch: %w", id, err)
		}
		fragment, err := extractFragment(string(page.Body), ca.spec.Extract)
		if err != nil {
			return cache.Entry{}, fmt.Errorf("ajax: action %d: %w", id, err)
		}
		return cache.Entry{Data: []byte(fragment), MIME: "text/html; charset=utf-8"}, nil
	}
	ttl := time.Duration(ca.spec.CacheTTLSeconds) * time.Second
	if d.cache == nil || ttl <= 0 {
		e, err := fill()
		return e.Data, err
	}
	key := "ajax:" + strconv.Itoa(id) + ":" + p
	e, err := d.cache.GetOrFill(key, ttl, fill)
	if err != nil {
		return nil, err
	}
	return e.Data, nil
}

// extractFragment returns the outer HTML of the first element the
// Extract selector list matches. An empty selector returns the page
// body's inner HTML.
func extractFragment(pageHTML, selector string) (string, error) {
	doc := html.Tidy(pageHTML)
	if selector == "" {
		body := doc.Body()
		if body == nil {
			return html.Render(doc), nil
		}
		var b strings.Builder
		for c := body.FirstChild; c != nil; c = c.NextSibling {
			b.WriteString(html.Render(c))
		}
		return b.String(), nil
	}
	nodes, err := css.Select(doc, selector)
	if err != nil {
		return "", err
	}
	if len(nodes) == 0 {
		return "", fmt.Errorf("extract selector %q matched nothing", selector)
	}
	return html.Render(nodes[0]), nil
}

// substituteParam replaces $1 (and $2..$9, all with the same single
// parameter the rewritten URL carries as p) in the target template.
func substituteParam(target, p string) string {
	escaped := urlEscape(p)
	for i := 9; i >= 1; i-- {
		target = strings.ReplaceAll(target, "$"+strconv.Itoa(i), escaped)
	}
	return target
}

func urlEscape(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.', c == '~':
			b.WriteByte(c)
		default:
			fmt.Fprintf(&b, "%%%02X", c)
		}
	}
	return b.String()
}

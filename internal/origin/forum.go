// Package origin provides the synthetic origin web applications the
// evaluation runs against, substituting for the live sites of the paper:
// a template-driven vBulletin-analog forum standing in for
// SawmillCreek.org (66k members, ≈224 KB entry page, ≈12 external
// scripts, Fig. 4), and a classified-listings engine standing in for
// CraigsList.com (§4.5, Fig. 6). Both are deterministic functions of a
// seed so experiments are reproducible.
package origin

import (
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// ForumConfig sizes the synthetic community.
type ForumConfig struct {
	// Name is the site branding.
	Name string
	// Members is the community size (the paper's site: ~66,000).
	Members int
	// Forums is the number of forum rows on the entry page (~30).
	Forums int
	// Online is the members-online count (~1200 peak).
	Online int
	// Scripts is the number of external JavaScript files (~12).
	Scripts int
	// Seed drives all synthetic content.
	Seed int64
}

// DefaultForumConfig mirrors the paper's deployment scale.
func DefaultForumConfig() ForumConfig {
	return ForumConfig{
		Name:    "Sawdust Creek",
		Members: 66_000,
		Forums:  30,
		Online:  312,
		Scripts: 12,
		Seed:    42,
	}
}

// Forum is the synthetic vBulletin-analog application.
type Forum struct {
	cfg ForumConfig

	mu         sync.Mutex
	pages      map[string][]byte // generated-content cache
	generation int               // entry-page revision, bumped by Bump

	bytesServed atomic.Int64

	forumNames  []string
	memberNames []string
}

// NewForum builds the forum from its config.
func NewForum(cfg ForumConfig) *Forum {
	if cfg.Forums <= 0 {
		cfg.Forums = 30
	}
	if cfg.Scripts <= 0 {
		cfg.Scripts = 12
	}
	if cfg.Members <= 0 {
		cfg.Members = 66_000
	}
	f := &Forum{cfg: cfg, pages: make(map[string][]byte)}
	rng := rand.New(rand.NewSource(cfg.Seed))
	f.forumNames = makeForumNames(cfg.Forums, rng)
	f.memberNames = makeMemberNames(60, rng)
	return f
}

var forumTopics = []string{
	"General Woodworking", "Project Finishing", "Hand Tools", "Power Tools",
	"Turning and Carving", "Workshop Design", "Lumber and Millwork",
	"Joinery Techniques", "CNC and Automation", "Sharpening Station",
	"Design and Drafting", "Restoration", "Outdoor Projects", "Scroll Saws",
	"Veneering and Inlay", "Furniture Builds", "Cabinet Making",
	"Wood Identification", "Shop Safety", "Dust Collection",
	"Classifieds", "Show and Tell", "Beginner Questions", "Jigs and Fixtures",
	"Finishing Chemistry", "Timber Framing", "Boat Building", "Luthiery",
	"Carving Gallery", "Off Topic Lounge", "Site Feedback", "Events and Meetups",
}

var nameParts = []string{
	"oak", "maple", "walnut", "birch", "cherry", "cedar", "pine", "elm",
	"ash", "beech", "saw", "plane", "chisel", "lathe", "rasp", "dado",
	"tenon", "dovetail", "burl", "grain", "knot", "board", "bench", "vise",
}

func makeForumNames(n int, rng *rand.Rand) []string {
	names := make([]string, n)
	for i := range names {
		if i < len(forumTopics) {
			names[i] = forumTopics[i]
			continue
		}
		part := nameParts[rng.Intn(len(nameParts))]
		names[i] = strings.ToUpper(part[:1]) + part[1:] + " Corner " + strconv.Itoa(i)
	}
	return names
}

func makeMemberNames(n int, rng *rand.Rand) []string {
	names := make([]string, n)
	for i := range names {
		a := nameParts[rng.Intn(len(nameParts))]
		b := nameParts[rng.Intn(len(nameParts))]
		names[i] = a + "_" + b + strconv.Itoa(rng.Intn(99))
	}
	return names
}

// Handler returns the forum's HTTP handler. Every response body is
// metered into BytesServed, so experiments can compare the origin cost
// of full rebuilds against conditional revalidation.
func (f *Forum) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", f.serveIndex)
	mux.HandleFunc("/index.php", f.serveIndex)
	mux.HandleFunc("/clientscript/", f.serveClientScript)
	mux.HandleFunc("/images/", f.serveImage)
	mux.HandleFunc("/ads/", f.serveImage)
	mux.HandleFunc("/media/", f.serveMedia)
	mux.HandleFunc("/forumdisplay.php", f.serveForumDisplay)
	mux.HandleFunc("/showthread.php", f.serveThread)
	mux.HandleFunc("/login.php", f.serveLogin)
	mux.HandleFunc("/private.php", f.servePrivate)
	mux.HandleFunc("/site.php", f.serveSite)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mux.ServeHTTP(&meteredWriter{ResponseWriter: w, total: &f.bytesServed}, r)
	})
}

// meteredWriter counts body bytes into the forum's served-bytes total.
type meteredWriter struct {
	http.ResponseWriter
	total *atomic.Int64
}

func (m *meteredWriter) Write(p []byte) (int, error) {
	n, err := m.ResponseWriter.Write(p)
	m.total.Add(int64(n))
	return n, err
}

// BytesServed returns the total response-body bytes this origin has
// sent since creation — the experiment's origin-cost meter.
func (f *Forum) BytesServed() int64 { return f.bytesServed.Load() }

// Bump advances the entry page to a new revision: the content and its
// ETag change, so conditional revalidation sees a modified origin. This
// is the churn lever for a rebuild-after-change workload.
func (f *Forum) Bump() {
	f.mu.Lock()
	f.generation++
	f.mu.Unlock()
}

// Generation returns the current entry-page revision.
func (f *Forum) Generation() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.generation
}

// indexState snapshots the revision-dependent serving state.
func (f *Forum) indexState() (gen int, etag, key string) {
	f.mu.Lock()
	gen = f.generation
	f.mu.Unlock()
	return gen, fmt.Sprintf("\"forum-g%d\"", gen), "index:g" + strconv.Itoa(gen)
}

// cached builds a page once and replays it; the origin must be fast so
// experiments measure the proxy, not the origin.
func (f *Forum) cached(key string, build func() []byte) []byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	if data, ok := f.pages[key]; ok {
		return data
	}
	data := build()
	f.pages[key] = data
	return data
}

// serveIndex serves the entry page with an ETag derived from the
// current revision; a matching If-None-Match answers 304 with no body,
// as a real origin answers a conditional GET.
func (f *Forum) serveIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" && r.URL.Path != "/index.php" {
		http.NotFound(w, r)
		return
	}
	gen, etag, key := f.indexState()
	w.Header().Set("ETag", etag)
	if r.Header.Get("If-None-Match") == etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	data := f.cached(key, func() []byte { return f.buildIndex(gen) })
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write(data)
}

// EntryPageBytes returns the entry page size, the §4.2 page-weight
// denominator.
func (f *Forum) EntryPageBytes() int {
	gen, _, key := f.indexState()
	return len(f.cached(key, func() []byte { return f.buildIndex(gen) }))
}

// buildIndex generates the Fig. 4 entry page: logo + leaderboard ad, nav
// links, login form, announcements, ~30 forum rows with latest posts,
// who's online, statistics, birthdays, calendar, footer nav. The
// revision seeds the synthetic numbers, so each Bump changes the page.
func (f *Forum) buildIndex(gen int) []byte {
	rng := rand.New(rand.NewSource(f.cfg.Seed + 1 + int64(gen)*9973))
	var b strings.Builder
	b.Grow(64 << 10)

	b.WriteString(`<!DOCTYPE html PUBLIC "-//W3C//DTD XHTML 1.0 Transitional//EN">
<html><head>
<title>`)
	b.WriteString(f.cfg.Name)
	b.WriteString(` Woodworking Community</title>
<link rel="stylesheet" type="text/css" href="/clientscript/vbulletin.css" />
`)
	for i := 0; i < f.cfg.Scripts; i++ {
		fmt.Fprintf(&b, `<script type="text/javascript" src="/clientscript/js_%d.js"></script>%s`, i, "\n")
	}
	b.WriteString(`<style type="text/css">
.page { width: 98%; margin: 0 auto }
.tcat { background-color: #738fbf; color: white; font-weight: bold; padding: 4px }
.announce { background-color: #fffbd6; border: 1px solid #c8c090; padding: 6px }
</style>
<script type="text/javascript">
function validateLogin() { var u = document.forms.login.username.value; return u.length > 0; }
function jumpForum(sel) { window.location = '/forumdisplay.php?f=' + sel.value; }
</script>
</head><body>
<div class="page">
`)

	// Logo + leaderboard banner.
	b.WriteString(`<div id="logo"><table width="100%"><tr>
<td><img src="/images/sawdust-logo.gif" width="320" height="70" alt="` + f.cfg.Name + `"></td>
<td align="right"><div id="banner"><img src="/ads/leaderboard.gif" width="728" height="90" alt="Advertisement"></div></td>
</tr></table></div>
`)

	// Nav links (single horizontal table row — the §4.3 scrollbar case).
	b.WriteString(`<div id="navlinks"><table cellspacing="0" cellpadding="4" border="0"><tr>`)
	nav := []struct{ href, label string }{
		{"/register.php", "Register"}, {"/faq.php", "FAQ"},
		{"/members.php", "Members List"}, {"/calendar.php", "Calendar"},
		{"/search.php", "Search"}, {"/newposts.php", "New Posts"},
		{"/markread.php", "Mark Forums Read"}, {"/login.php?do=logout", "Log Out"},
	}
	for _, n := range nav {
		fmt.Fprintf(&b, `<td nowrap="nowrap"><a href="%s">%s</a></td>`, n.href, n.label)
	}
	b.WriteString("</tr></table></div>\n")

	// Login form.
	b.WriteString(`<form id="loginform" name="login" action="/login.php" method="post" onsubmit="return validateLogin();">
<table cellpadding="2"><tr>
<td>User Name</td><td><input type="text" name="username" size="12"></td>
<td>Password</td><td><input type="password" name="password" size="12"></td>
<td><input type="checkbox" name="remember" checked> Remember Me</td>
<td><input type="submit" value="Log in"></td>
</tr></table>
</form>
`)

	// Announcements.
	b.WriteString(`<div id="announce" class="announce"><strong>Announcement:</strong> The annual shop tour signup is open. Please review the updated posting guidelines before sharing project photos.</div>
`)

	// Rich media: the shop-tour Flash box (the content the thumbnail
	// attribute mobilizes).
	b.WriteString(`<div id="shoptour"><object width="480" height="270" data="/media/shoptour.swf" type="application/x-shockwave-flash">
<embed src="/media/shoptour.swf" width="480" height="270" type="application/x-shockwave-flash">
</object><div class="smallfont">Video: annual shop tour highlights</div></div>
`)

	// Forum listing.
	b.WriteString(`<table id="forums" class="tborder" cellpadding="6" cellspacing="1" border="0" width="100%">
<tr><td class="tcat" colspan="4">Discussion Forums</td></tr>
`)
	for i, name := range f.forumNames {
		poster := f.memberNames[rng.Intn(len(f.memberNames))]
		threads := 800 + rng.Intn(9000)
		posts := threads * (4 + rng.Intn(9))
		fmt.Fprintf(&b, `<tr>
<td class="alt1"><img src="/images/forum_new_%d.gif" width="24" height="24" alt=""></td>
<td class="alt2"><a href="/forumdisplay.php?f=%d"><strong>%s</strong></a>
<div class="smallfont">Discussion of %s for the community.</div></td>
<td class="alt1"><div class="smallfont">Today 0%d:%02d PM<br>by <a href="/member.php?u=%d">%s</a></div></td>
<td class="alt2" align="center"><div class="smallfont">Threads: %s<br>Posts: %s</div></td>
</tr>
`, i%4, i+2, name, strings.ToLower(name), 1+rng.Intn(9), rng.Intn(60), rng.Intn(f.cfg.Members), poster,
			comma(threads), comma(posts))
	}
	b.WriteString("</table>\n")

	// Who's online.
	b.WriteString(`<div id="whosonline"><div class="tcat">Currently Active Users: ` + comma(f.cfg.Online) + `</div><div class="smallfont">`)
	for i := 0; i < 40 && i < len(f.memberNames); i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, `<a href="/member.php?u=%d">%s</a>`, rng.Intn(f.cfg.Members), f.memberNames[i])
	}
	b.WriteString("</div></div>\n")

	// Statistics.
	fmt.Fprintf(&b, `<div id="stats" class="smallfont"><div class="tcat">%s Statistics</div>
Threads: %s, Posts: %s, Members: %s<br>
Welcome to our newest member, <a href="/member.php?u=%d">%s</a></div>
`, f.cfg.Name, comma(88_000+rng.Intn(10_000)), comma(700_000+rng.Intn(90_000)),
		comma(f.cfg.Members), f.cfg.Members-1, f.memberNames[0])

	// Birthdays and calendar.
	b.WriteString(`<div id="birthdays" class="smallfont"><strong>Today's Birthdays:</strong> `)
	for i := 0; i < 6; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, `<a href="/member.php?u=%d">%s (%d)</a>`, rng.Intn(f.cfg.Members),
			f.memberNames[rng.Intn(len(f.memberNames))], 30+rng.Intn(50))
	}
	b.WriteString("</div>\n")
	b.WriteString(`<div id="calendar" class="smallfont"><strong>Calendar:</strong> <a href="/calendar.php?e=1">Hand Tool Swap Meet</a>, <a href="/calendar.php?e=2">Finishing Workshop</a>, <a href="/calendar.php?e=3">Guild Meeting</a></div>
`)

	// Footer nav + jump menu.
	b.WriteString(`<div id="footer"><select name="forumjump" onchange="jumpForum(this)">`)
	for i, name := range f.forumNames {
		fmt.Fprintf(&b, `<option value="%d">%s</option>`, i+2, name)
	}
	b.WriteString(`</select>
<div class="smallfont"><a href="/sendmessage.php">Contact Us</a> - <a href="/">Home</a> - <a href="/archive/">Archive</a> - <a href="#top">Top</a></div>
</div>
</div></body></html>`)
	return []byte(b.String())
}

func comma(v int) string {
	s := strconv.Itoa(v)
	if len(s) <= 3 {
		return s
	}
	var b strings.Builder
	lead := len(s) % 3
	if lead > 0 {
		b.WriteString(s[:lead])
	}
	for i := lead; i < len(s); i += 3 {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(s[i : i+3])
	}
	return b.String()
}

// serveClientScript serves the external CSS and JS subresources with
// deterministic synthetic bodies sized like vBulletin's.
func (f *Forum) serveClientScript(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/clientscript/")
	switch {
	case name == "vbulletin.css":
		w.Header().Set("Content-Type", "text/css")
		_, _ = w.Write(f.cached("css", func() []byte { return buildCSS(30_000) }))
	case strings.HasPrefix(name, "js_") && strings.HasSuffix(name, ".js"):
		w.Header().Set("Content-Type", "application/javascript")
		_, _ = w.Write(f.cached(name, func() []byte { return buildJS(name, 6_000) }))
	default:
		http.NotFound(w, r)
	}
}

// buildCSS emits a deterministic stylesheet of roughly n bytes.
func buildCSS(n int) []byte {
	var b strings.Builder
	b.Grow(n + 256)
	b.WriteString("body { font-family: verdana, arial; font-size: 13px; margin: 0 }\n")
	b.WriteString(".tborder { background-color: #d1d1e1; border: 1px solid #0b198c }\n")
	b.WriteString(".alt1 { background-color: #f5f5ff } .alt2 { background-color: #e1e4f2 }\n")
	b.WriteString(".smallfont { font-size: 11px } a { color: #22229c }\n")
	i := 0
	for b.Len() < n {
		fmt.Fprintf(&b, ".vb-rule-%d td.c%d { padding: %dpx; border-bottom: 1px solid #b0b0c8 }\n",
			i, i%7, 2+i%6)
		i++
	}
	return []byte(b.String())
}

// buildJS emits a deterministic script of roughly n bytes.
func buildJS(name string, n int) []byte {
	var b strings.Builder
	b.Grow(n + 256)
	fmt.Fprintf(&b, "// %s — vBulletin client support\n", name)
	b.WriteString("var vb = window.vb || {};\n")
	i := 0
	for b.Len() < n {
		fmt.Fprintf(&b, "vb.fn_%d = function (a, b) { if (!a) { return b; } return a + %d; };\n", i, i)
		i++
	}
	return []byte(b.String())
}

// serveImage serves deterministic GIF-shaped bytes sized per role: small
// forum icons, a large leaderboard ad, the logo.
func (f *Forum) serveImage(w http.ResponseWriter, r *http.Request) {
	name := strings.Trim(r.URL.Path, "/")
	size := 1_400 // forum icon
	switch {
	case strings.Contains(name, "leaderboard"):
		size = 38_000
	case strings.Contains(name, "logo"):
		size = 14_000
	}
	w.Header().Set("Content-Type", "image/gif")
	_, _ = w.Write(f.cached("img:"+name+":"+strconv.Itoa(size), func() []byte {
		return fakeGIF(name, size)
	}))
}

// serveMedia serves rich-media bytes (the Flash movie the thumbnail
// attribute replaces).
func (f *Forum) serveMedia(w http.ResponseWriter, r *http.Request) {
	name := strings.Trim(r.URL.Path, "/")
	if !strings.HasSuffix(name, ".swf") {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/x-shockwave-flash")
	_, _ = w.Write(f.cached("media:"+name, func() []byte {
		data := fakeGIF(name, 24_000)
		copy(data, "FWS\x09") // SWF magic
		return data
	}))
}

// fakeGIF builds deterministic pseudo-image bytes with a GIF header.
func fakeGIF(seed string, n int) []byte {
	out := make([]byte, n)
	copy(out, "GIF89a")
	state := uint32(2166136261)
	for _, c := range []byte(seed) {
		state = (state ^ uint32(c)) * 16777619
	}
	for i := 6; i < n; i++ {
		state = state*1664525 + 1013904223
		out[i] = byte(state >> 24)
	}
	return out
}

func (f *Forum) serveForumDisplay(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.URL.Query().Get("f"))
	if err != nil || id < 2 || id >= 2+len(f.forumNames) {
		http.NotFound(w, r)
		return
	}
	data := f.cached("forum:"+strconv.Itoa(id), func() []byte {
		return f.buildForumDisplay(id)
	})
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write(data)
}

func (f *Forum) buildForumDisplay(id int) []byte {
	rng := rand.New(rand.NewSource(f.cfg.Seed + int64(id)*7))
	name := f.forumNames[id-2]
	var b strings.Builder
	fmt.Fprintf(&b, `<!DOCTYPE html><html><head><title>%s - %s</title>
<link rel="stylesheet" type="text/css" href="/clientscript/vbulletin.css" />
</head><body><h1>%s</h1><table class="tborder" width="100%%">`, name, f.cfg.Name, name)
	for t := 0; t < 25; t++ {
		poster := f.memberNames[rng.Intn(len(f.memberNames))]
		fmt.Fprintf(&b, `<tr><td class="alt1"><a href="/showthread.php?t=%d">%s thread %d: %s discussion</a>
<div class="smallfont">started by %s, %d replies</div></td></tr>
`, id*1000+t, name, t+1, strings.ToLower(name), poster, rng.Intn(300))
	}
	b.WriteString(`</table><a href="/">Back to index</a></body></html>`)
	return []byte(b.String())
}

func (f *Forum) serveThread(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.URL.Query().Get("t"))
	if err != nil || id < 0 {
		http.NotFound(w, r)
		return
	}
	data := f.cached("thread:"+strconv.Itoa(id), func() []byte {
		rng := rand.New(rand.NewSource(f.cfg.Seed + int64(id)*13))
		var b strings.Builder
		fmt.Fprintf(&b, `<!DOCTYPE html><html><head><title>Thread %d</title></head><body><div id="posts">`, id)
		for p := 0; p < 12; p++ {
			fmt.Fprintf(&b, `<div class="post"><div class="smallfont">%s</div><div class="postbody">Reply %d: grain orientation matters more than species here. Measurement %d held within tolerance.</div>
<a href="#" onclick="$('#picframe').load('site.php?do=showpic&id=%d'); return false;">Show Picture</a></div>
`, f.memberNames[rng.Intn(len(f.memberNames))], p+1, rng.Intn(500), id*100+p)
		}
		b.WriteString(`<div id="picframe"></div></div></body></html>`)
		return []byte(b.String())
	})
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write(data)
}

// serveLogin implements the origin's form login: valid credentials set
// the origin session cookie the proxy's cookie jar must carry.
func (f *Forum) serveLogin(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		_, _ = w.Write([]byte(`<html><body><form method="post" action="/login.php">
<input type="text" name="username"><input type="password" name="password">
<input type="submit" value="Log in"></form></body></html>`))
		return
	}
	if err := r.ParseForm(); err != nil {
		http.Error(w, "bad form", http.StatusBadRequest)
		return
	}
	user := r.FormValue("username")
	if user == "" || r.FormValue("password") != "sawdust" {
		http.Error(w, "bad credentials", http.StatusForbidden)
		return
	}
	http.SetCookie(w, &http.Cookie{Name: "bbuserid", Value: user, Path: "/"})
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, `<html><body>Thanks for logging in, %s. <a href="/">Continue</a></body></html>`, user)
}

// servePrivate is a members-only page gated on the origin session
// cookie — the content the proxy can only fetch with the user's jar.
func (f *Forum) servePrivate(w http.ResponseWriter, r *http.Request) {
	c, err := r.Cookie("bbuserid")
	if err != nil || c.Value == "" {
		http.Error(w, "login required", http.StatusForbidden)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, `<html><body><div id="pm">Private messages for %s: <ul><li>Welcome to the guild</li><li>Jig drawings attached</li></ul></div></body></html>`, c.Value)
}

// serveSite is the vBulletin-style AJAX request handler the paper's §4.4
// example rewrites: site.php?do=showpic&id=N.
func (f *Forum) serveSite(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("do") != "showpic" {
		http.NotFound(w, r)
		return
	}
	id := r.URL.Query().Get("id")
	if id == "" {
		http.Error(w, "missing id", http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, `<html><body><div id="pic"><img src="/images/photo_%s.gif" width="640" height="480" alt="attachment %s"></div><div id="chrome">navigation chrome</div></body></html>`, id, id)
}

package proxy

import (
	"bytes"
	"context"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"msite/internal/fetch"
	"msite/internal/html"
)

// TestSubresourceBatchCapsImages: an entry with two stylesheets and more
// than maxRenderImages distinct images fetches both sheets and exactly
// maxRenderImages images in the one batch. The sheets are inlined in
// document order, and the decoded images are keyed as before — the
// first maxRenderImages distinct srcs, each as written and as absolute —
// each key holding its own image, not a neighbour's.
func TestSubresourceBatchCapsImages(t *testing.T) {
	const nImages = maxRenderImages + 12
	var page strings.Builder
	page.WriteString(`<html><head><link rel="stylesheet" href="/a.css"><link rel="stylesheet" href="b.css" media="print"></head><body>`)
	page.WriteString(`<img src="data:image/gif;base64,R0lGOD"><img src="">`)
	for i := range nImages {
		fmt.Fprintf(&page, `<img src="/img/%d.png">`, i)
		if i == 3 {
			page.WriteString(`<img src="/img/0.png">`) // a repeat is one download
		}
	}
	page.WriteString(`</body></html>`)
	shade := func(i int) color.NRGBA { return color.NRGBA{R: uint8(i), G: 7, B: 9, A: 255} }

	var mu sync.Mutex
	requested := make(map[string]int)
	originSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		requested[r.URL.Path]++
		mu.Unlock()
		switch path := r.URL.Path; {
		case path == "/a.css" || path == "/b.css":
			_, _ = fmt.Fprintf(w, "p { color: %s }", strings.TrimSuffix(path[1:], ".css"))
		case strings.HasPrefix(path, "/img/"):
			i, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(path, "/img/"), ".png"))
			if err != nil {
				http.NotFound(w, r)
				return
			}
			img := image.NewNRGBA(image.Rect(0, 0, 1, 1))
			img.SetNRGBA(0, 0, shade(i))
			var buf bytes.Buffer
			_ = png.Encode(&buf, img)
			_, _ = w.Write(buf.Bytes())
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(originSrv.Close)

	doc := html.Tidy(page.String())
	images, err := fetchSubresources(context.Background(), fetch.New(nil), doc, originSrv.URL+"/")
	if err != nil {
		t.Fatal(err)
	}

	imageRequests := 0
	for path, n := range requested {
		if n != 1 {
			t.Errorf("%s requested %d times, want once", path, n)
		}
		if strings.HasPrefix(path, "/img/") {
			imageRequests++
		}
	}
	if requested["/a.css"] != 1 || requested["/b.css"] != 1 {
		t.Errorf("stylesheet requests %v, want /a.css and /b.css once each", requested)
	}
	if imageRequests != maxRenderImages {
		t.Errorf("%d image requests, want %d", imageRequests, maxRenderImages)
	}

	var inlined []string
	for _, style := range doc.Elements("style") {
		inlined = append(inlined, style.AttrOr("media", "all")+" "+style.FirstChild.Data)
	}
	if want := []string{"all p { color: a }", "print p { color: b }"}; strings.Join(inlined, "|") != strings.Join(want, "|") {
		t.Errorf("inlined sheets %q, want %q", inlined, want)
	}
	if links := doc.Elements("link"); len(links) != 0 {
		t.Errorf("%d stylesheet links left after inlining", len(links))
	}

	var want, got []string
	for i := range maxRenderImages {
		src := "/img/" + strconv.Itoa(i) + ".png"
		want = append(want, src, originSrv.URL+src)
		for _, key := range []string{src, originSrv.URL + src} {
			img, ok := images[key]
			if !ok {
				continue
			}
			if c := color.NRGBAModel.Convert(img.At(0, 0)); c != shade(i) {
				t.Errorf("images[%q] is %v, want %v", key, c, shade(i))
			}
		}
	}
	for key := range images {
		got = append(got, key)
	}
	sort.Strings(want)
	sort.Strings(got)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("decoded image keys\n got %v\nwant %v", got, want)
	}
}

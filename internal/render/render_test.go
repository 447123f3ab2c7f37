package render

import (
	"bytes"
	"strings"
	"testing"

	"msite/internal/html"
	"msite/internal/imaging"
	"msite/internal/layout"
)

const samplePage = `
<html><head><title>Sample</title><style>
  body { color: black }
  #menu { background-color: #eee }
</style></head>
<body>
  <h1>Forum Index</h1>
  <div id="menu"><a href="/login">Log in</a></div>
  <p>Welcome to the community.</p>
  <script>var hidden = "nope";</script>
</body></html>`

// TestEngineLookup: ?format= accepts exactly the built-in engines, each
// with its content type, and nothing else.
func TestEngineLookup(t *testing.T) {
	for _, tc := range []struct{ name, mime string }{
		{"text", "text/plain; charset=utf-8"},
		{"pdf", "application/pdf"},
		{"image/high", "image/png"},
		{"image/medium", "image/jpeg"},
		{"image/low", "image/jpeg"},
		{"image/thumb", "image/jpeg"},
	} {
		e, err := Lookup(tc.name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", tc.name, err)
		}
		if e.MIME() != tc.mime {
			t.Errorf("Lookup(%q).MIME() = %q, want %q", tc.name, e.MIME(), tc.mime)
		}
	}
	for _, name := range []string{"html", "flash", "image/", ""} {
		if _, err := Lookup(name); err == nil {
			t.Errorf("Lookup(%q) found an engine", name)
		}
	}
}

func TestTextEngine(t *testing.T) {
	doc := html.Parse(samplePage)
	out, err := (TextEngine{}).Render(doc, layout.Viewport{})
	if err != nil {
		t.Fatal(err)
	}
	text := string(out)
	if !strings.Contains(text, "Forum Index") || !strings.Contains(text, "Welcome to the community.") {
		t.Fatalf("text = %q", text)
	}
	if strings.Contains(text, "hidden") || strings.Contains(text, "Sample") {
		t.Fatalf("script/title leaked: %q", text)
	}
	// Blocks become separate lines.
	if !strings.Contains(text, "Forum Index\n") {
		t.Fatalf("no line break after block: %q", text)
	}
}

func TestExtractTextBr(t *testing.T) {
	doc := html.Parse(`<p>one<br>two</p>`)
	text := ExtractText(doc)
	if !strings.Contains(text, "one\ntwo") {
		t.Fatalf("br not a line break: %q", text)
	}
}

func TestImageEngines(t *testing.T) {
	doc := html.Parse(samplePage)
	png, err := (ImageEngine{Fidelity: imaging.FidelityHigh}).Render(doc, layout.Viewport{Width: 600})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(png, []byte("\x89PNG")) {
		t.Fatal("not a PNG")
	}
	jpg, err := (ImageEngine{Fidelity: imaging.FidelityLow}).Render(doc, layout.Viewport{Width: 600})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(jpg, []byte("\xff\xd8")) {
		t.Fatal("not a JPEG")
	}
	// PNG vs JPEG sizes only order on complex pages; the fidelity ladder
	// on the full forum page is exercised by the §3.3 experiment bench.
}

func TestPDFEngineStructure(t *testing.T) {
	doc := html.Parse(samplePage)
	out, err := (PDFEngine{}).Render(doc, layout.Viewport{})
	if err != nil {
		t.Fatal(err)
	}
	pdf := string(out)
	for _, marker := range []string{"%PDF-1.4", "/Type /Catalog", "/Type /Page", "/Helvetica", "xref", "trailer", "startxref", "%%EOF"} {
		if !strings.Contains(pdf, marker) {
			t.Fatalf("pdf missing %q", marker)
		}
	}
	if !strings.Contains(pdf, "(Forum Index)") {
		t.Fatal("pdf missing page text")
	}
}

func TestPDFEscaping(t *testing.T) {
	doc := html.Parse(`<p>paren (x) and back\slash</p>`)
	out, err := (PDFEngine{}).Render(doc, layout.Viewport{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), `\(x\)`) {
		t.Fatalf("parens not escaped")
	}
	if !strings.Contains(string(out), `back\\slash`) {
		t.Fatal("backslash not escaped")
	}
}

func TestPDFMultiPage(t *testing.T) {
	var b strings.Builder
	b.WriteString("<html><body>")
	for i := 0; i < 200; i++ {
		b.WriteString("<p>line of text for the page body content</p>")
	}
	b.WriteString("</body></html>")
	doc := html.Parse(b.String())
	out, err := (PDFEngine{}).Render(doc, layout.Viewport{})
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(out), "/Type /Page "); n < 3 {
		t.Fatalf("pages = %d, want multi-page", n)
	}
}

func TestPDFEmptyDocument(t *testing.T) {
	doc := html.Parse(``)
	out, err := (PDFEngine{}).Render(doc, layout.Viewport{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "%%EOF") {
		t.Fatal("empty doc should still emit a valid PDF")
	}
}

func TestWrapPDFLines(t *testing.T) {
	long := strings.Repeat("word ", 40) // 200 chars
	lines := wrapPDFLines(long)
	if len(lines) < 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	for _, l := range lines {
		if len(l) > 90 {
			t.Fatalf("line too long: %d", len(l))
		}
	}
	if got := wrapPDFLines(strings.Repeat("x", 100)); len(got) != 2 {
		t.Fatalf("unbreakable line handling: %v", got)
	}
}

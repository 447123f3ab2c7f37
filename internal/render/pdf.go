package render

import (
	"fmt"
	"strings"

	"msite/internal/dom"
	"msite/internal/layout"
)

// PDFEngine emits the page text as a minimal but valid PDF document —
// one of the paper's pluggable output formats ("HTML, static images,
// PDF, plain text, or Flash content").
type PDFEngine struct{}

var _ Engine = PDFEngine{}

// MIME implements Engine.
func (PDFEngine) MIME() string { return "application/pdf" }

// PDF page geometry (US Letter, 1/72 inch units).
const (
	pdfPageW      = 612
	pdfPageH      = 792
	pdfMargin     = 50
	pdfFontSize   = 10
	pdfLeading    = 12
	pdfLinesPerPg = (pdfPageH - 2*pdfMargin) / pdfLeading
)

// Render implements Engine.
func (PDFEngine) Render(doc *dom.Node, _ layout.Viewport) ([]byte, error) {
	text := ExtractText(doc)
	lines := wrapPDFLines(text)
	if len(lines) == 0 {
		lines = []string{""}
	}
	var pages [][]string
	for len(lines) > 0 {
		n := pdfLinesPerPg
		if n > len(lines) {
			n = len(lines)
		}
		pages = append(pages, lines[:n])
		lines = lines[n:]
	}
	return buildPDF(pages), nil
}

// wrapPDFLines splits extracted text into page-width lines (~90 chars of
// 10pt Helvetica across a letter page).
func wrapPDFLines(text string) []string {
	const maxCols = 90
	var out []string
	for _, raw := range strings.Split(text, "\n") {
		raw = strings.TrimRight(raw, " ")
		if raw == "" {
			continue
		}
		for len(raw) > maxCols {
			cut := strings.LastIndexByte(raw[:maxCols], ' ')
			if cut <= 0 {
				cut = maxCols
			}
			out = append(out, raw[:cut])
			raw = strings.TrimLeft(raw[cut:], " ")
		}
		out = append(out, raw)
	}
	return out
}

// buildPDF assembles the object graph: catalog, page tree, one page +
// content stream per page group, and a shared Type1 Helvetica font.
func buildPDF(pages [][]string) []byte {
	var body strings.Builder
	var offsets []int

	addObj := func(content string) {
		offsets = append(offsets, body.Len())
		body.WriteString(content)
	}

	nPages := len(pages)
	// Object numbering: 1 catalog, 2 pages, 3 font, then per page i:
	// page object 4+2i, contents 5+2i.
	kids := make([]string, nPages)
	for i := range pages {
		kids[i] = fmt.Sprintf("%d 0 R", 4+2*i)
	}

	header := "%PDF-1.4\n"
	addObj("1 0 obj\n<< /Type /Catalog /Pages 2 0 R >>\nendobj\n")
	addObj(fmt.Sprintf("2 0 obj\n<< /Type /Pages /Kids [%s] /Count %d >>\nendobj\n",
		strings.Join(kids, " "), nPages))
	addObj("3 0 obj\n<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>\nendobj\n")

	for i, pageLines := range pages {
		stream := buildContentStream(pageLines)
		addObj(fmt.Sprintf(
			"%d 0 obj\n<< /Type /Page /Parent 2 0 R /MediaBox [0 0 %d %d] /Contents %d 0 R /Resources << /Font << /F1 3 0 R >> >> >>\nendobj\n",
			4+2*i, pdfPageW, pdfPageH, 5+2*i))
		addObj(fmt.Sprintf("%d 0 obj\n<< /Length %d >>\nstream\n%s\nendstream\nendobj\n",
			5+2*i, len(stream), stream))
	}

	var out strings.Builder
	out.WriteString(header)
	out.WriteString(body.String())

	// xref
	xrefPos := out.Len()
	nObjs := len(offsets)
	out.WriteString(fmt.Sprintf("xref\n0 %d\n", nObjs+1))
	out.WriteString("0000000000 65535 f \n")
	for _, off := range offsets {
		out.WriteString(fmt.Sprintf("%010d 00000 n \n", off+len(header)))
	}
	out.WriteString(fmt.Sprintf(
		"trailer\n<< /Size %d /Root 1 0 R >>\nstartxref\n%d\n%%%%EOF\n",
		nObjs+1, xrefPos))
	return []byte(out.String())
}

func buildContentStream(lines []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "BT\n/F1 %d Tf\n%d TL\n%d %d Td\n", pdfFontSize, pdfLeading, pdfMargin, pdfPageH-pdfMargin)
	for _, line := range lines {
		fmt.Fprintf(&b, "(%s) Tj\nT*\n", escapePDFString(line))
	}
	b.WriteString("ET")
	return b.String()
}

func escapePDFString(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch c {
		case '(', ')', '\\':
			b.WriteByte('\\')
			b.WriteByte(c)
		default:
			if c < 0x20 || c > 0x7e {
				fmt.Fprintf(&b, "\\%03o", c)
				continue
			}
			b.WriteByte(c)
		}
	}
	return b.String()
}

// Package html implements an HTML tokenizer, an error-tolerant tag-soup
// parser producing dom trees, a serializer, and a Tidy pass that converts
// arbitrary markup into well-formed XHTML — the role HTML Tidy plays in the
// m.Site paper, enabling the XML/DOM toolchain to operate on real-world
// pages.
package html

import (
	"strings"

	"msite/internal/dom"
)

// TokenType identifies a lexical token produced by the Tokenizer.
type TokenType int

// Token kinds.
const (
	ErrorToken TokenType = iota + 1 // end of input
	TextToken
	StartTagToken
	EndTagToken
	SelfClosingTagToken
	CommentToken
	DoctypeToken
)

// Token is a single lexical HTML token.
type Token struct {
	Type TokenType
	Tag  string // lowercase tag name for tag tokens, doctype text for DoctypeToken
	Data string // text or comment content
	// Attrs are a start or self-closing tag's attributes, a window of the
	// tokenizer's attribute slab: appending to it copies it out.
	Attrs []dom.Attr
}

// rawTextTags are elements whose content is not markup: the tokenizer
// reads until the matching close tag.
var rawTextTags = map[string]bool{
	"script":   true,
	"style":    true,
	"textarea": true,
	"title":    true,
	"xmp":      true,
}

// Tokenizer splits HTML source into tokens. It never fails: malformed
// input degrades to text tokens, mirroring browser behaviour.
type Tokenizer struct {
	src string
	pos int
	// rawUntil, when non-empty, means the tokenizer is inside a raw-text
	// element and must scan for its end tag.
	rawUntil string
	// attrs is the slab every tag's attributes are cut from.
	attrs dom.Slab[dom.Attr]
}

// attrChunk is how many attributes a chunk of a tokenizer's slab holds,
// at most; a source with fewer '=' gets a chunk of that size.
const attrChunk = 128

// NewTokenizer returns a Tokenizer over src.
func NewTokenizer(src string) *Tokenizer {
	z := &Tokenizer{src: src}
	z.attrs.Chunk = min(attrChunk, strings.Count(src, "=")+1)
	return z
}

// Next returns the next token. After the input is exhausted it returns
// a token with Type ErrorToken forever.
func (z *Tokenizer) Next() Token {
	if z.pos >= len(z.src) {
		return Token{Type: ErrorToken}
	}
	if z.rawUntil != "" {
		return z.nextRawText()
	}
	if z.src[z.pos] == '<' {
		if tok, ok := z.nextMarkup(); ok {
			return tok
		}
	}
	return z.nextText()
}

func (z *Tokenizer) nextText() Token {
	start := z.pos
	for z.pos < len(z.src) {
		if z.src[z.pos] == '<' && z.pos+1 < len(z.src) && looksLikeMarkup(z.src[z.pos+1]) {
			break
		}
		z.pos++
	}
	if z.pos == start { // lone '<' at end or before non-markup
		z.pos++
		return Token{Type: TextToken, Data: "<"}
	}
	return Token{Type: TextToken, Data: UnescapeEntities(z.src[start:z.pos])}
}

func looksLikeMarkup(c byte) bool {
	return c == '/' || c == '!' || c == '?' ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

// nextMarkup attempts to read a tag, comment, or doctype starting at '<'.
// It returns ok=false when the '<' does not open valid markup.
func (z *Tokenizer) nextMarkup() (Token, bool) {
	src, i := z.src, z.pos
	if i+1 >= len(src) {
		return Token{}, false
	}
	switch {
	case strings.HasPrefix(src[i:], "<!--"):
		return z.readComment(), true
	case src[i+1] == '!':
		return z.readDeclaration(), true
	case src[i+1] == '?':
		// Processing instruction (e.g. <?php ... ?>): consumed as a comment
		// so the proxy can preserve it.
		return z.readProcessingInstruction(), true
	case src[i+1] == '/':
		return z.readEndTag(), true
	case isTagNameStart(src[i+1]):
		return z.readStartTag(), true
	}
	return Token{}, false
}

func isTagNameStart(c byte) bool {
	return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isTagNameChar(c byte) bool {
	return isTagNameStart(c) || (c >= '0' && c <= '9') || c == '-' || c == ':'
}

func (z *Tokenizer) readComment() Token {
	start := z.pos + 4 // past "<!--"
	end := strings.Index(z.src[start:], "-->")
	if end < 0 {
		z.pos = len(z.src)
		return Token{Type: CommentToken, Data: z.src[start:]}
	}
	z.pos = start + end + 3
	return Token{Type: CommentToken, Data: z.src[start : start+end]}
}

func (z *Tokenizer) readDeclaration() Token {
	start := z.pos + 2 // past "<!"
	end := strings.IndexByte(z.src[start:], '>')
	var body string
	if end < 0 {
		body = z.src[start:]
		z.pos = len(z.src)
	} else {
		body = z.src[start : start+end]
		z.pos = start + end + 1
	}
	if len(body) >= 7 && strings.EqualFold(body[:7], "doctype") {
		return Token{Type: DoctypeToken, Tag: strings.TrimSpace(body[7:])}
	}
	// Other declarations (CDATA etc.) surface as comments.
	return Token{Type: CommentToken, Data: body}
}

func (z *Tokenizer) readProcessingInstruction() Token {
	start := z.pos + 1
	end := strings.IndexByte(z.src[start:], '>')
	if end < 0 {
		z.pos = len(z.src)
		return Token{Type: CommentToken, Data: z.src[start:]}
	}
	z.pos = start + end + 1
	return Token{Type: CommentToken, Data: z.src[start : start+end]}
}

func (z *Tokenizer) readEndTag() Token {
	i := z.pos + 2 // past "</"
	start := i
	for i < len(z.src) && isTagNameChar(z.src[i]) {
		i++
	}
	name := strings.ToLower(z.src[start:i])
	// Skip to '>'.
	for i < len(z.src) && z.src[i] != '>' {
		i++
	}
	if i < len(z.src) {
		i++
	}
	z.pos = i
	return Token{Type: EndTagToken, Tag: name}
}

func (z *Tokenizer) readStartTag() Token {
	i := z.pos + 1
	start := i
	for i < len(z.src) && isTagNameChar(z.src[i]) {
		i++
	}
	name := strings.ToLower(z.src[start:i])
	tok := Token{Type: StartTagToken, Tag: name}
	// Attributes.
	for i < len(z.src) {
		i = skipSpace(z.src, i)
		if i >= len(z.src) {
			break
		}
		if z.src[i] == '>' {
			i++
			break
		}
		if z.src[i] == '/' {
			i++
			if i < len(z.src) && z.src[i] == '>' {
				i++
				tok.Type = SelfClosingTagToken
				break
			}
			continue
		}
		var attr dom.Attr
		attr, i = readAttr(z.src, i)
		if attr.Key != "" {
			z.attrs.Add(attr)
		}
	}
	tok.Attrs = z.attrs.Cut()
	z.pos = i
	if tok.Type == StartTagToken && rawTextTags[name] {
		z.rawUntil = name
	}
	return tok
}

func skipSpace(s string, i int) int {
	for i < len(s) {
		switch s[i] {
		case ' ', '\t', '\n', '\r', '\f':
			i++
		default:
			return i
		}
	}
	return i
}

func readAttr(s string, i int) (dom.Attr, int) {
	start := i
	for i < len(s) && s[i] != '=' && s[i] != '>' && s[i] != '/' && !isSpace(s[i]) {
		i++
	}
	key := strings.ToLower(s[start:i])
	i = skipSpace(s, i)
	if i >= len(s) || s[i] != '=' {
		return dom.Attr{Key: key}, i
	}
	i = skipSpace(s, i+1)
	if i >= len(s) {
		return dom.Attr{Key: key}, i
	}
	var val string
	switch s[i] {
	case '"', '\'':
		quote := s[i]
		i++
		vstart := i
		for i < len(s) && s[i] != quote {
			i++
		}
		val = s[vstart:i]
		if i < len(s) {
			i++
		}
	default:
		vstart := i
		for i < len(s) && s[i] != '>' && !isSpace(s[i]) {
			i++
		}
		val = s[vstart:i]
	}
	return dom.Attr{Key: key, Val: UnescapeEntities(val)}, i
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f'
}

// nextRawText scans the body of a raw-text element (script, style, ...)
// up to its close tag, emitting the body as one TextToken (undecoded:
// script source is not entity-encoded) and then the EndTagToken.
func (z *Tokenizer) nextRawText() Token {
	closeTag := "</" + z.rawUntil
	rest := z.src[z.pos:]
	idx := indexFold(rest, closeTag)
	if idx < 0 {
		// Unterminated raw element: consume everything.
		z.rawUntil = ""
		data := rest
		z.pos = len(z.src)
		return Token{Type: TextToken, Data: data}
	}
	if idx > 0 {
		data := rest[:idx]
		z.pos += idx
		return Token{Type: TextToken, Data: data}
	}
	// At the close tag itself.
	z.rawUntil = ""
	return z.readEndTag()
}

// indexFold is a case-insensitive strings.Index for ASCII needles.
func indexFold(s, needle string) int {
	n := len(needle)
	if n == 0 {
		return 0
	}
	for i := 0; i+n <= len(s); i++ {
		if strings.EqualFold(s[i:i+n], needle) {
			return i
		}
	}
	return -1
}

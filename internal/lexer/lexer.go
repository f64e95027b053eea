// Package lexer tokenizes MiniJS source code.
//
// The lexer supports the ES6 subset used by the corpus applications:
// identifiers, numeric and string literals (single, double and template
// quotes), the full operator set used by the parser, and // and /* */
// comments. Automatic semicolon insertion is handled in the parser by
// treating newlines as soft statement boundaries; the lexer records, for
// each token, whether a newline preceded it.
package lexer

import (
	"fmt"
	"strings"
)

// Kind classifies a token.
type Kind int

// Token kinds produced by the lexer.
const (
	EOF Kind = iota
	Ident
	Keyword
	Number
	String   // 'x' or "x"
	Template // `x${ ... }y` — emitted as TemplateStart/Chunk/End sequence
	Punct    // operators and delimiters

	// Template literal structure. A template literal `a${b}c` lexes as
	//   TemplateStart("a") <tokens for b> TemplateMid/TemplateEnd("c")
	// where TemplateMid closes one interpolation and opens the next chunk.
	TemplateStart
	TemplateMid
	TemplateEnd
	TemplateFull // template with no interpolations: `abc`
)

func (k Kind) String() string {
	switch k {
	case EOF:
		return "EOF"
	case Ident:
		return "Ident"
	case Keyword:
		return "Keyword"
	case Number:
		return "Number"
	case String:
		return "String"
	case Punct:
		return "Punct"
	case TemplateStart:
		return "TemplateStart"
	case TemplateMid:
		return "TemplateMid"
	case TemplateEnd:
		return "TemplateEnd"
	case TemplateFull:
		return "TemplateFull"
	}
	return "Token?"
}

// Token is one lexical token.
type Token struct {
	Kind    Kind
	Text    string // raw text for idents/puncts, decoded value for strings
	Line    int
	Col     int
	NLBefor bool // a newline appeared between the previous token and this one
}

func (t Token) String() string {
	return fmt.Sprintf("%s(%q)@%d:%d", t.Kind, t.Text, t.Line, t.Col)
}

var keywords = map[string]bool{
	"var": true, "let": true, "const": true, "function": true,
	"return": true, "if": true, "else": true, "for": true, "while": true,
	"do": true, "break": true, "continue": true, "new": true, "class": true,
	"extends": true, "this": true, "null": true, "true": true, "false": true,
	"undefined": true, "typeof": true, "delete": true, "in": true, "of": true,
	"async": true, "await": true, "throw": true, "try": true, "catch": true,
	"finally": true, "switch": true, "case": true, "default": true,
	"instanceof": true, "static": true, "void": true,
}

// IsKeyword reports whether name is a MiniJS keyword.
func IsKeyword(name string) bool { return keywords[name] }

// puncts lists the punctuators, longest-match-first.
var puncts = []string{
	"===", "!==", "**=", "...", ">>>", "<<=", ">>=", "&&=", "||=", "??=",
	"=>", "==", "!=", "<=", ">=", "&&", "||", "??", "++", "--", "+=", "-=",
	"*=", "/=", "%=", "&=", "|=", "^=", "**", "<<", ">>", "?.",
	"+", "-", "*", "/", "%", "=", "<", ">", "!", "&", "|", "^", "~", "?",
	":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
}

// punctTable holds, for each first byte, the punctuators that start with
// it, in the longest-match-first order of puncts.
type punctTable [256][]string

// punctsByFirst is the table Next matches punctuators against: one
// bucket of at most a handful of entries per lookup instead of all of
// puncts.
var punctsByFirst = func() *punctTable {
	var t punctTable
	for _, p := range puncts {
		t[p[0]] = append(t[p[0]], p)
	}
	return &t
}()

// Error is a lexical error with position information.
type Error struct {
	Msg  string
	Line int
	Col  int
}

func (e *Error) Error() string { return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg) }

// Lexer scans a MiniJS source string.
type Lexer struct {
	src  string
	pos  int
	line int
	col  int

	// template interpolation nesting: counts unbalanced '{' since the last
	// '${'. When a '}' is seen at depth 0 with pending template state, the
	// lexer resumes the enclosing template literal.
	templateDepth []int
	nlPending     bool

	puncts *punctTable
}

// New returns a lexer over src.
func New(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1, puncts: punctsByFirst}
}

// Tokenize scans the whole input and returns the token list, terminated by
// an EOF token.
func Tokenize(src string) ([]Token, error) {
	return New(src).all()
}

// linearPuncts puts every punctuator in every bucket, so a lookup tries
// all of puncts in order: the scan punctsByFirst replaced.
var linearPuncts = func() *punctTable {
	var t punctTable
	for i := range t {
		t[i] = puncts
	}
	return &t
}()

// TokenizeLinear is Tokenize matching punctuators by the linear scan over
// every entry. It is the oracle the tests hold the first-byte buckets to:
// both must produce identical token streams.
func TokenizeLinear(src string) ([]Token, error) {
	lx := New(src)
	lx.puncts = linearPuncts
	return lx.all()
}

func (lx *Lexer) all() ([]Token, error) {
	var toks []Token
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks, nil
		}
	}
}

func (lx *Lexer) errf(format string, args ...any) error {
	return &Error{Msg: fmt.Sprintf(format, args...), Line: lx.line, Col: lx.col}
}

func (lx *Lexer) peek() byte {
	if lx.pos >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos]
}

func (lx *Lexer) peekAt(off int) byte {
	if lx.pos+off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos+off]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.pos]
	lx.pos++
	if c == '\n' {
		lx.line++
		lx.col = 1
		lx.nlPending = true
	} else {
		lx.col++
	}
	return c
}

// Next returns the next token.
func (lx *Lexer) Next() (Token, error) {
	if err := lx.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	nl := lx.nlPending
	lx.nlPending = false
	line, col := lx.line, lx.col
	mk := func(k Kind, text string) Token {
		return Token{Kind: k, Text: text, Line: line, Col: col, NLBefor: nl}
	}
	if lx.pos >= len(lx.src) {
		return mk(EOF, ""), nil
	}
	c := lx.peek()
	switch {
	case isIdentStart(c):
		text := lx.scanIdent()
		if keywords[text] {
			return mk(Keyword, text), nil
		}
		return mk(Ident, text), nil
	case c >= '0' && c <= '9', c == '.' && isDigit(lx.peekAt(1)):
		text, err := lx.scanNumber()
		if err != nil {
			return Token{}, err
		}
		return mk(Number, text), nil
	case c == '"' || c == '\'':
		text, err := lx.scanString(c)
		if err != nil {
			return Token{}, err
		}
		return mk(String, text), nil
	case c == '`':
		lx.advance()
		chunk, term, err := lx.scanTemplateChunk()
		if err != nil {
			return Token{}, err
		}
		if term == '`' {
			return mk(TemplateFull, chunk), nil
		}
		lx.templateDepth = append(lx.templateDepth, 0)
		return mk(TemplateStart, chunk), nil
	case c == '}' && len(lx.templateDepth) > 0 && lx.templateDepth[len(lx.templateDepth)-1] == 0:
		// resume template literal
		lx.advance()
		chunk, term, err := lx.scanTemplateChunk()
		if err != nil {
			return Token{}, err
		}
		if term == '`' {
			lx.templateDepth = lx.templateDepth[:len(lx.templateDepth)-1]
			return mk(TemplateEnd, chunk), nil
		}
		return mk(TemplateMid, chunk), nil
	default:
		rest := lx.src[lx.pos:]
		for _, p := range lx.puncts[c] {
			if strings.HasPrefix(rest, p) {
				// no punctuator holds a newline
				lx.pos += len(p)
				lx.col += len(p)
				if len(lx.templateDepth) > 0 {
					top := len(lx.templateDepth) - 1
					switch p {
					case "{":
						lx.templateDepth[top]++
					case "}":
						lx.templateDepth[top]--
					}
				}
				return mk(Punct, p), nil
			}
		}
	}
	return Token{}, lx.errf("unexpected character %q", string(c))
}

func (lx *Lexer) skipSpaceAndComments() error {
	for lx.pos < len(lx.src) {
		c := lx.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '/' && lx.peekAt(1) == '/':
			for lx.pos < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		case c == '/' && lx.peekAt(1) == '*':
			lx.advance()
			lx.advance()
			closed := false
			for lx.pos < len(lx.src) {
				if lx.peek() == '*' && lx.peekAt(1) == '/' {
					lx.advance()
					lx.advance()
					closed = true
					break
				}
				lx.advance()
			}
			if !closed {
				return lx.errf("unterminated block comment")
			}
		default:
			return nil
		}
	}
	return nil
}

func (lx *Lexer) scanIdent() string {
	start := lx.pos
	for lx.pos < len(lx.src) && isIdentPart(lx.peek()) {
		lx.advance()
	}
	return lx.src[start:lx.pos]
}

func (lx *Lexer) scanNumber() (string, error) {
	start := lx.pos
	if lx.peek() == '0' && (lx.peekAt(1) == 'x' || lx.peekAt(1) == 'X') {
		lx.advance()
		lx.advance()
		if !isHexDigit(lx.peek()) {
			return "", lx.errf("hexadecimal literal needs at least one digit")
		}
		for isHexDigit(lx.peek()) {
			lx.advance()
		}
		return lx.src[start:lx.pos], nil
	}
	for isDigit(lx.peek()) {
		lx.advance()
	}
	if lx.peek() == '.' && isDigit(lx.peekAt(1)) {
		lx.advance()
		for isDigit(lx.peek()) {
			lx.advance()
		}
	}
	if c := lx.peek(); c == 'e' || c == 'E' {
		save := lx.pos
		lx.advance()
		if c := lx.peek(); c == '+' || c == '-' {
			lx.advance()
		}
		if !isDigit(lx.peek()) {
			lx.pos = save // not an exponent; leave for the parser to reject
			return lx.src[start:lx.pos], nil
		}
		for isDigit(lx.peek()) {
			lx.advance()
		}
	}
	return lx.src[start:lx.pos], nil
}

func (lx *Lexer) scanString(quote byte) (string, error) {
	lx.advance() // opening quote
	var b strings.Builder
	for {
		if lx.pos >= len(lx.src) {
			return "", lx.errf("unterminated string literal")
		}
		c := lx.advance()
		switch {
		case c == quote:
			return b.String(), nil
		case c == '\n':
			return "", lx.errf("newline in string literal")
		case c == '\\':
			if lx.pos >= len(lx.src) {
				return "", lx.errf("unterminated string escape")
			}
			e := lx.advance()
			b.WriteByte(unescape(e))
		default:
			b.WriteByte(c)
		}
	}
}

// scanTemplateChunk scans template text until a '${' (returns term '$') or
// closing backquote (returns term '`').
func (lx *Lexer) scanTemplateChunk() (string, byte, error) {
	var b strings.Builder
	for {
		if lx.pos >= len(lx.src) {
			return "", 0, lx.errf("unterminated template literal")
		}
		c := lx.advance()
		switch {
		case c == '`':
			return b.String(), '`', nil
		case c == '$' && lx.peek() == '{':
			lx.advance()
			return b.String(), '$', nil
		case c == '\\':
			if lx.pos >= len(lx.src) {
				return "", 0, lx.errf("unterminated template escape")
			}
			e := lx.advance()
			b.WriteByte(unescape(e))
		default:
			b.WriteByte(c)
		}
	}
}

func unescape(e byte) byte {
	switch e {
	case 'n':
		return '\n'
	case 't':
		return '\t'
	case 'r':
		return '\r'
	case '0':
		return 0
	case 'b':
		return '\b'
	default:
		return e
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || c == '$' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool { return isIdentStart(c) || isDigit(c) }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

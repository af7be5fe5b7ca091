package rdf

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"unicode/utf8"
)

// Syntax is an output encoding of the N-Triples term grammar. The tables
// hold the replacement of each ASCII byte ("" emits it as is) inside <...>,
// inside "...", and in the parts N-Triples writes bare (blank-node labels,
// language tags); every byte N-Triples or JSON escapes is ASCII.
type Syntax struct {
	quote          string // the literal delimiter
	iri, lit, bare [utf8.RuneSelf]string
	invalid        string // replaces a byte that is not UTF-8; "" emits it as is
}

// NTriples is the N-Triples syntax itself.
var NTriples = ntriplesSyntax()

// JSON is NTriples escaped, in the same pass, for the inside of a JSON
// string (the quotes around it are the caller's). Only what JSON requires
// is escaped — not <, > or & — and invalid UTF-8 becomes U+FFFD.
var JSON = NTriples.jsonEscaped()

func ntriplesSyntax() *Syntax {
	syn := &Syntax{quote: `"`}
	syn.lit['"'], syn.lit['\\'] = `\"`, `\\`
	syn.lit['\n'], syn.lit['\r'], syn.lit['\t'] = `\n`, `\r`, `\t`
	for b := range syn.iri {
		if b <= 0x20 || strings.IndexByte("<>\"{}|^`", byte(b)) >= 0 {
			syn.iri[b] = fmt.Sprintf(`\u%04X`, b)
		}
	}
	syn.iri['\\'] = `\\`
	return syn
}

// jsonEscaped derives the syntax that writes what syn writes, JSON-escaped.
func (syn *Syntax) jsonEscaped() *Syntax {
	esc := func(s string) string {
		var b bytes.Buffer
		enc := json.NewEncoder(&b)
		enc.SetEscapeHTML(false)
		_ = enc.Encode(s) // a string always encodes
		return b.String()[1 : b.Len()-2]
	}
	derive := func(from, to *[utf8.RuneSelf]string) {
		for b, out := range from {
			self := string(rune(b))
			if out == "" {
				out = self
			}
			if out = esc(out); out != self {
				to[b] = out
			}
		}
	}
	js := &Syntax{quote: esc(syn.quote), invalid: esc("\xff")}
	derive(&syn.iri, &js.iri)
	derive(&syn.lit, &js.lit)
	derive(&syn.bare, &js.bare)
	return js
}

// escape appends s, replacing the bytes tab (or UTF-8 validity) singles out.
func (syn *Syntax) escape(dst []byte, s string, tab *[utf8.RuneSelf]string) []byte {
	start := 0
	for i := 0; i < len(s); {
		var rep string
		if b := s[i]; b < utf8.RuneSelf {
			if rep = tab[b]; rep == "" {
				i++
				continue
			}
		} else {
			if syn.invalid == "" {
				i++
				continue
			}
			if r, size := utf8.DecodeRuneInString(s[i:]); r != utf8.RuneError || size > 1 {
				i += size
				continue
			}
			rep = syn.invalid
		}
		dst = append(dst, s[start:i]...)
		dst = append(dst, rep...)
		i++
		start = i
	}
	return append(dst, s[start:]...)
}

// AppendText appends s as syn writes what N-Triples leaves bare: for JSON,
// as the content of a JSON string.
func (syn *Syntax) AppendText(dst []byte, s string) []byte {
	return syn.escape(dst, s, &syn.bare)
}

// Unescape decodes N-Triples string escapes (\t \b \n \r \f \" \' \\ \uXXXX
// \UXXXXXXXX). It returns an error on malformed escapes or invalid UTF-8 —
// RDF terms are Unicode strings, and accepting arbitrary bytes would break
// the serialization round trip. It is used by both the N-Triples reader and
// the SPARQL lexer (IRI references share this escape syntax).
func Unescape(s string) (string, error) {
	if !utf8.ValidString(s) {
		return "", fmt.Errorf("rdf: invalid UTF-8 in %q", s)
	}
	if !strings.ContainsRune(s, '\\') {
		return s, nil
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); {
		c := s[i]
		if c != '\\' {
			b.WriteByte(c)
			i++
			continue
		}
		if i+1 >= len(s) {
			return "", fmt.Errorf("rdf: dangling backslash at end of %q", s)
		}
		switch e := s[i+1]; e {
		case 't':
			b.WriteByte('\t')
			i += 2
		case 'b':
			b.WriteByte('\b')
			i += 2
		case 'n':
			b.WriteByte('\n')
			i += 2
		case 'r':
			b.WriteByte('\r')
			i += 2
		case 'f':
			b.WriteByte('\f')
			i += 2
		case '"':
			b.WriteByte('"')
			i += 2
		case '\'':
			b.WriteByte('\'')
			i += 2
		case '\\':
			b.WriteByte('\\')
			i += 2
		case 'u':
			r, err := hexRune(s, i+2, 4)
			if err != nil {
				return "", err
			}
			b.WriteRune(r)
			i += 6
		case 'U':
			r, err := hexRune(s, i+2, 8)
			if err != nil {
				return "", err
			}
			b.WriteRune(r)
			i += 10
		default:
			return "", fmt.Errorf("rdf: invalid escape \\%c in %q", e, s)
		}
	}
	return b.String(), nil
}

func hexRune(s string, start, n int) (rune, error) {
	if start+n > len(s) {
		return 0, fmt.Errorf("rdf: truncated unicode escape in %q", s)
	}
	var v rune
	for i := start; i < start+n; i++ {
		c := s[i]
		var d rune
		switch {
		case c >= '0' && c <= '9':
			d = rune(c - '0')
		case c >= 'a' && c <= 'f':
			d = rune(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = rune(c-'A') + 10
		default:
			return 0, fmt.Errorf("rdf: invalid hex digit %q in unicode escape", c)
		}
		v = v<<4 | d
	}
	if !utf8.ValidRune(v) {
		return 0, fmt.Errorf("rdf: escape denotes invalid rune U+%X", v)
	}
	return v, nil
}

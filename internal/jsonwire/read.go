// Package jsonwire is the one JSON codec of the program's hot
// documents: it reads the artifacts a verifier reads back (abi.ParseJSON,
// minisol.ParseLayout) and the JSON-RPC wire, and writes the JSON-RPC
// wire and the hot /api/v1 bodies, under each tier's shape code.
//
// A Reader is a byte cursor over one document. Its decoders write into
// Go values the way encoding/json decodes into a struct, so every
// decoder built on it accepts what encoding/json accepts and builds the
// same values: keys match field names under Unicode case folding (Is), a
// repeated key decodes again into what the first one left, unknown keys
// are skipped with their syntax checked, null leaves a string, bool, int
// or struct as it is and makes a slice nil, integers refuse fractions,
// exponents and overflow, and only whitespace may follow the document.
// Raw hands back a value's bytes as they stand, its syntax checked, for
// a json.RawMessage field or a value decoded later. The first error
// sticks: later reads do nothing, and Finish returns it.
//
// The Append functions write what encoding/json writes, into buffers
// from a capped pool. The encoding/json decoders and map builders the
// package replaced are the oracles, in the tests of its users.
package jsonwire

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit for arrays and objects.
const maxDepth = 10000

// A Reader reads one JSON document.
type Reader struct {
	data  []byte
	pos   int
	depth int
	err   error
	buf   []byte // strings that needed unescaping
}

// NewReader returns a Reader at the start of data.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Finish checks that only whitespace follows the value read and returns
// the first error met.
func (r *Reader) Finish() error {
	if r.peek(); r.pos < len(r.data) {
		r.fail("data after the top-level value")
	}
	return r.err
}

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("json: offset %d: %s", r.pos, fmt.Sprintf(format, args...))
	}
	r.pos = len(r.data)
}

// peek skips whitespace and returns the next byte, 0 at the end or
// after an error.
func (r *Reader) peek() byte {
	d, p := r.data, r.pos
	for p < len(d) && (d[p] == ' ' || d[p] == '\n' || d[p] == '\t' || d[p] == '\r') {
		p++
	}
	if r.pos = p; p == len(d) || r.err != nil {
		return 0
	}
	return d[p]
}

func (r *Reader) literal(word string) {
	if !bytes.HasPrefix(r.data[r.pos:], []byte(word)) {
		r.fail("invalid literal")
		return
	}
	r.pos += len(word)
}

// next returns the first byte of the next value when it is one of
// kinds. It consumes a null and returns 0, and fails on anything else.
func (r *Reader) next(kinds, want string) byte {
	c := r.peek()
	switch {
	case c == 'n':
		r.literal("null")
	case c != 0 && strings.IndexByte(kinds, c) >= 0:
		return c
	case r.err == nil:
		r.fail("want %s", want)
	}
	return 0
}

// String decodes a string into *dst; null leaves *dst as it is.
func (r *Reader) String(dst *string) {
	if r.next(`"`, "a string") != 0 {
		*dst = string(r.str())
	}
}

// Bool decodes true or false into *dst; null leaves *dst as it is.
func (r *Reader) Bool(dst *bool) {
	switch r.next("tf", "a bool") {
	case 't':
		r.literal("true")
		*dst = true
	case 'f':
		r.literal("false")
		*dst = false
	}
}

// Int decodes an integer into *dst; null leaves *dst as it is. A
// fraction, an exponent or a value outside int's range is an error.
func (r *Reader) Int(dst *int) {
	if r.next("-0123456789", "an int") == 0 {
		return
	}
	lit, integer := r.number()
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	if r.err == nil && (!integer || err != nil) {
		r.fail("number %s is not an int", lit)
	} else if r.err == nil {
		*dst = int(n)
	}
}

// Object decodes an object, calling field with each member's key; field
// must read the member's value (Skip reads one it does not want). The
// key is valid until the value is read. Null is an object without
// members.
func (r *Reader) Object(field func(key []byte)) {
	if r.next("{", "an object") == 0 {
		return
	}
	r.list('}', func() {
		if r.peek() != '"' {
			r.fail("want an object key")
			return
		}
		key := r.str()
		if r.peek() != ':' {
			r.fail("want ':' after an object key")
			return
		}
		r.pos++
		field(key)
	})
}

// Slice decodes an array into s as encoding/json decodes into a slice:
// elem decodes element i into s[i] over what s holds there (a repeated
// key decodes into the slice its first occurrence left, up to its
// capacity), the result holds the elements read, an empty array is a new
// empty slice and null is nil.
func Slice[T any](r *Reader, s []T, elem func(*T)) []T {
	if r.next("[", "an array") == 0 {
		return nil
	}
	i := 0
	r.list(']', func() {
		switch i {
		case cap(s):
			var zero T
			s = append(s, zero)
		case len(s):
			s = s[:i+1]
		}
		elem(&s[i])
		i++
	})
	if i == 0 {
		return []T{}
	}
	return s[:i]
}

// Skip reads any one value and discards it.
func (r *Reader) Skip() {
	switch c := r.peek(); c {
	case '{':
		r.Object(func([]byte) { r.Skip() })
	case '[':
		r.list(']', r.Skip)
	case '"':
		r.str()
	case 't':
		r.literal("true")
	case 'f':
		r.literal("false")
	default:
		if r.next("-0123456789", "a value") != 0 {
			r.number()
		}
	}
}

// Raw reads any one value, its syntax checked, and returns its bytes as
// they stand in the input, without the whitespace around them. The
// result aliases the input; it is nil after an error.
func (r *Reader) Raw() []byte {
	r.peek()
	start := r.pos
	if r.Skip(); r.err != nil {
		return nil
	}
	return r.data[start:r.pos]
}

// list reads the elements of an array or object whose opening bracket
// is next, calling elem for each, up to the closing bracket end.
func (r *Reader) list(end byte, elem func()) {
	r.pos++
	if r.depth++; r.depth > maxDepth {
		r.fail("nested deeper than %d", maxDepth)
	}
	if r.peek() != end {
		for elem(); r.peek() == ','; elem() {
			r.pos++
		}
	}
	if r.peek() != end {
		r.fail("want ',' or %q", end)
		return
	}
	r.pos++
	r.depth--
}

// number reads a number and reports whether it is an integer (no
// fraction, no exponent).
func (r *Reader) number() (lit []byte, integer bool) {
	d, p := r.data, r.pos
	if p < len(d) && d[p] == '-' {
		p++
	}
	q := digits(d, p)
	ok := q > p && (d[p] != '0' || q == p+1)
	integer, p = true, q
	if p < len(d) && d[p] == '.' {
		q = digits(d, p+1)
		ok, integer, p = ok && q > p+1, false, q
	}
	if p < len(d) && (d[p] == 'e' || d[p] == 'E') {
		if p++; p < len(d) && (d[p] == '+' || d[p] == '-') {
			p++
		}
		q = digits(d, p)
		ok, integer, p = ok && q > p, false, q
	}
	if !ok {
		r.fail("invalid number")
		return nil, false
	}
	lit, r.pos = d[r.pos:p], p
	return lit, integer
}

func digits(d []byte, p int) int {
	for p < len(d) && '0' <= d[p] && d[p] <= '9' {
		p++
	}
	return p
}

// plain marks the bytes a string holds as they are: ASCII but for
// control characters, '"' and '\\'.
var plain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// unescape maps the byte after a backslash to what it stands for; 0 is
// not an escape (\u is decoded apart).
var unescape = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// str reads a string and returns it unquoted, with each byte of invalid
// UTF-8 and each unpaired surrogate escape replaced by U+FFFD. The
// result aliases the input or the reader's buffer: it is valid until the
// next string is read.
func (r *Reader) str() []byte {
	d, start := r.data, r.pos+1
	p := start
	for p < len(d) && plain[d[p]] {
		p++
	}
	if p < len(d) && d[p] == '"' {
		r.pos = p + 1
		return d[start:p]
	}
	b := append(r.buf[:0], d[start:p]...)
	for p < len(d) && d[p] != '"' && d[p] >= ' ' {
		switch c := d[p]; {
		case c >= utf8.RuneSelf:
			ru, n := utf8.DecodeRune(d[p:])
			b, p = utf8.AppendRune(b, ru), p+n
		case c != '\\':
			b, p = append(b, c), p+1
		case p+1 < len(d) && unescape[d[p+1]] != 0:
			b, p = append(b, unescape[d[p+1]]), p+2
		default:
			ru := hex4(d[p:])
			if ru < 0 {
				r.pos = p
				r.fail("invalid escape")
				return nil
			}
			if p += 6; utf16.IsSurrogate(ru) {
				if ru = utf16.DecodeRune(ru, hex4(d[p:])); ru != utf8.RuneError {
					p += 6
				}
			}
			b = utf8.AppendRune(b, ru)
		}
	}
	if p >= len(d) || d[p] != '"' {
		r.pos = p
		r.fail("unterminated string, or a control character in it")
		return nil
	}
	r.pos, r.buf = p+1, b
	return b
}

// hex4 returns the code unit of a \uXXXX escape at the start of s, -1
// if there is none.
func hex4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	u, err := strconv.ParseUint(string(s[2:6]), 16, 16)
	if err != nil {
		return -1
	}
	return rune(u)
}

// Is reports whether an object key names the field name as
// encoding/json matches keys to field names: equal under Unicode case
// folding, so "Type" and "TYPE" name type and "ſtateMutability", with a
// long s, names stateMutability.
func Is(key []byte, name string) bool {
	return bytes.EqualFold(key, []byte(name))
}

package jsonwire

import (
	"encoding/hex"
	"io"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"

	"legalchain/internal/uint256"
)

// The appender writes what encoding/json writes for the same value.
// Object keys are the caller's: a shape writer writes them in the order
// encoding/json did, sorted for a map and declared for a struct.

// AppendKey writes the key of an object member, after a comma unless
// the member opens its object. The key is written as it stands, so it
// must need no escaping.
func AppendKey(b []byte, key string) []byte {
	if len(b) > 0 && b[len(b)-1] != '{' {
		b = append(b, ',')
	}
	return append(append(append(b, '"'), key...), '"', ':')
}

// AppendList writes xs as an array, each element by elem.
func AppendList[T any](b []byte, xs []T, elem func([]byte, T) []byte) []byte {
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = elem(b, x)
	}
	return append(b, ']')
}

// AppendHex writes data as a 0x-prefixed hex string (hexutil.Encode).
func AppendHex(b, data []byte) []byte {
	b = append(b, `"0x`...)
	b = hex.AppendEncode(b, data)
	return append(b, '"')
}

// AppendQuantity writes n as a hex quantity (hexutil.EncodeUint64).
func AppendQuantity(b []byte, n uint64) []byte {
	b = append(b, `"0x`...)
	b = strconv.AppendUint(b, n, 16)
	return append(b, '"')
}

// AppendBigQuantity writes x as a hex quantity (hexutil.EncodeBig).
func AppendBigQuantity(b []byte, x uint256.Int) []byte {
	if x.IsUint64() {
		return AppendQuantity(b, x.Uint64())
	}
	b = append(b, `"0x`...)
	b = x.ToBig().Append(b, 16)
	return append(b, '"')
}

// AppendDecimal writes x as a decimal string, as x.String() spells it.
func AppendDecimal(b []byte, x uint256.Int) []byte {
	b = append(b, '"')
	if x.IsUint64() {
		b = strconv.AppendUint(b, x.Uint64(), 10)
	} else {
		b = x.ToBig().Append(b, 10)
	}
	return append(b, '"')
}

// AppendFloat writes f as encoding/json writes a float64: the shortest
// decimal that reads back as f, with an exponent below 1e-6 and from
// 1e21 up (its exponent without a leading zero), and -0 as "-0".
// encoding/json refuses NaN and the infinities; they are written null.
func AppendFloat(b []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(b, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-09 is written e-9
		b = b[:n-1]
	}
	return b
}

const hexDigits = "0123456789abcdef"

// htmlSafe marks the ASCII bytes a string holds as they are: printable,
// and not '"', '\\', '<', '>' or '&'.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// AppendString writes s as encoding/json writes a string: control
// characters, '"' and '\\' escaped, '<', '>' and '&' escaped as \u00XX,
// U+2028 and U+2029 escaped, and each byte of invalid UTF-8 as \ufffd.
func AppendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// AppendRaw writes a valid JSON value as encoding/json writes a
// json.RawMessage: whitespace outside strings dropped, '<', '>', '&',
// U+2028 and U+2029 escaped, every other byte as it stands. Nil is null.
func AppendRaw(b, raw []byte) []byte {
	if raw == nil {
		return append(b, "null"...)
	}
	inString, escaped := false, false
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		switch {
		case c == '<' || c == '>' || c == '&':
			b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			continue
		case c == 0xE2 && i+2 < len(raw) && raw[i+1] == 0x80 && raw[i+2]&^1 == 0xA8:
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[raw[i+2]&0xF])
			i += 2
			continue
		case escaped:
			escaped = false
		case inString && c == '\\':
			escaped = true
		case c == '"':
			inString = !inString
		case !inString && (c == ' ' || c == '\t' || c == '\n' || c == '\r'):
			continue
		}
		b = append(b, c)
	}
	return b
}

// buffers holds the byte slices documents are read into and written
// from, so a request costs no buffer growth once the pool is warm.
var buffers = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBuffer bounds what goes back to the pool: one large document
// must not pin its buffer for the life of the process.
const maxPooledBuffer = 64 << 10

// GetBuffer takes an empty buffer from the pool.
func GetBuffer() *[]byte { return buffers.Get().(*[]byte) }

// PutBuffer returns p to the pool holding b, the buffer it grew into,
// unless b is larger than the pool keeps.
func PutBuffer(p *[]byte, b []byte) {
	if cap(b) <= maxPooledBuffer {
		*p = b[:0]
		buffers.Put(p)
	}
}

// ReadAll appends everything rd holds to b.
func ReadAll(b []byte, rd io.Reader) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := rd.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

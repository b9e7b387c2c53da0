package jsonwire

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"sort"
	"strconv"
	"testing"
)

// awkward holds what encoding/json escapes: HTML characters, a quote, a
// backslash, control characters, U+2028, U+2029 and invalid UTF-8.
const awkward = "<a href=\"x\">&amp;</a>\\ \x00\x01\b\f\n\r\t\x1f\x7f \u2028\u2029 é \xff\xc3 \xed\xa0\x80 \U0001F600"

// TestAppendStringMatchesEncodingJSON: AppendString writes a string as
// json.Marshal does.
func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	for _, s := range []string{
		"", "plain", awkward, "\u2028", "\u2029", "x\u2028y\u2029z",
		"\xff", "\xe2\x80", "\xe2\x80\xa8x", "tail\xf0\x9f\x98", "\xed\xa0\x80",
		"<>&", "a<b>c&d", "\x00\x01\x1f\x7f", "\"\\/",
	} {
		want, _ := json.Marshal(s)
		if got := AppendString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("AppendString(%q) = %s, want %s", s, got, want)
		}
	}
}

// TestAppendFloatMatchesEncodingJSON: AppendFloat writes a float64 as
// json.Marshal does, on both sides of the thresholds where it switches
// to an exponent (1e-6 and 1e21) and at the signed zero.
func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.5, 2.5e-3, 123.456, 1e20,
		1e-6, math.Nextafter(1e-6, 0), 1e-7, 9.99e-7, -1e-7, 1.5e-10,
		1e21, math.Nextafter(1e21, 0), 1.5e21, -1e21, 1e100, 1e-100,
		math.MaxFloat64, math.SmallestNonzeroFloat64, float64(1 << 53), 3.0000000000000004,
	} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendFloat(nil, f); !bytes.Equal(got, want) {
			t.Errorf("AppendFloat(%g) = %s, want %s", f, got, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := json.Marshal(f); err == nil {
			t.Fatalf("encoding/json wrote %g", f)
		}
		if got := AppendFloat(nil, f); string(got) != "null" {
			t.Errorf("AppendFloat(%g) = %s, want null", f, got)
		}
	}
}

// TestAppendRawMatchesEncodingJSON: AppendRaw writes a value as
// json.Marshal writes it as a json.RawMessage.
func TestAppendRawMatchesEncodingJSON(t *testing.T) {
	for _, raw := range []string{
		`1`, ` "a b" `, "{ \"k\" : [1, 2,\n\t3], \"s\": \"<a> & \u2028\u2029 \\\" \\\\\" }",
		`"<"`, `[ ]`, `null`,
	} {
		want, err := json.Marshal(json.RawMessage(raw))
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendRaw(nil, []byte(raw)); !bytes.Equal(got, want) {
			t.Errorf("AppendRaw(%q) = %s, want %s", raw, got, want)
		}
	}
	if got := AppendRaw(nil, nil); string(got) != "null" {
		t.Errorf("AppendRaw(nil) = %s, want null", got)
	}
}

// readValue decodes any one value into what encoding/json decodes into
// an interface{}: map[string]any, []any, string, float64, bool or nil.
func readValue(r *Reader) any {
	switch r.peek() {
	case '{':
		m := map[string]any{}
		r.Object(func(key []byte) {
			k := string(key)
			m[k] = readValue(r)
		})
		return m
	case '[':
		return Slice(r, []any(nil), func(v *any) { *v = readValue(r) })
	case '"':
		var s string
		r.String(&s)
		return s
	case 't', 'f':
		var b bool
		r.Bool(&b)
		return b
	case 'n':
		r.Skip()
		return nil
	}
	lit := r.Raw()
	if lit == nil {
		return nil
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		r.fail("number %s out of range", lit)
	}
	return f
}

// appendValue writes a value readValue built as encoding/json writes it:
// map keys in sorted order.
func appendValue(b []byte, v any) []byte {
	switch v := v.(type) {
	case nil:
		return append(b, "null"...)
	case bool:
		return strconv.AppendBool(b, v)
	case float64:
		return AppendFloat(b, v)
	case string:
		return AppendString(b, v)
	case []any:
		b = append(b, '[')
		for i, e := range v {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendValue(b, e)
		}
		return append(b, ']')
	case map[string]any:
		keys := make([]string, 0, len(v))
		for k := range v {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b = append(b, '{')
		for i, k := range keys {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(AppendString(b, k), ':')
			b = appendValue(b, v[k])
		}
		return append(b, '}')
	}
	panic("jsonwire: no generic form for a value of this type")
}

// FuzzAppendMatchesEncodingJSON reads hostile documents through Reader
// and through encoding/json: both accept or both refuse, what they
// accept is the same generic value, and the appender writes it as the
// same bytes as json.Marshal.
func FuzzAppendMatchesEncodingJSON(f *testing.F) {
	for _, seed := range []string{
		`{"b":1,"a":[true,false,null,"x<y>&z"],"":{}}`,
		"\"\u2028\u2029 \\ud800 \U0001F600 \\/\"",
		`[1e21,1e20,1e-6,1e-7,-0,0.1,5e-324,1.7976931348623157e308]`,
		`[[[[[[[[[[]]]]]]]]]]`,
		`{"a":1,"a":2,"A":3}`,
		`{"a":}`, `[1,]`, `01`, `1e400`, `"` + "\xff\xfe" + `"`, `"a` + "\x01" + `"`,
		` [ 1 , "two" , { "three" : 3 } ] `, `-`, `1.`, `.5`, `[1] x`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		var want any
		wantErr := json.Unmarshal(doc, &want)
		r := NewReader(doc)
		got := readValue(r)
		gotErr := r.Finish()
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%q: encoding/json err %v, Reader err %v", doc, wantErr, gotErr)
		}
		if wantErr != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: Reader read %#v, encoding/json %#v", doc, got, want)
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if gotJSON := appendValue(nil, got); !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("%q: appender wrote %s, encoding/json %s", doc, gotJSON, wantJSON)
		}
	})
}

// TestBufferPoolCapsWhatItKeeps: a buffer grown past the cap is not
// pooled, so one large document does not pin its memory.
func TestBufferPoolCapsWhatItKeeps(t *testing.T) {
	p := GetBuffer()
	big := make([]byte, 0, maxPooledBuffer+1)
	PutBuffer(p, big)
	if cap(*p) == cap(big) {
		t.Fatal("an over-cap buffer went back to the pool")
	}
	small := append((*p)[:0], "abc"...)
	PutBuffer(p, small)
	if len(*p) != 0 || cap(*p) != cap(small) {
		t.Fatalf("a pooled buffer holds len %d cap %d, want 0 and %d", len(*p), cap(*p), cap(small))
	}
}

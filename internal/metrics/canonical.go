package metrics

import (
	"bytes"
	"encoding"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// CanonicalDigest is DigestJSON over v's canonical JSON form, the
// digest to use when v is a *request* rather than a result payload:
// two encodings of the same configuration must collide. Object keys
// are sorted regardless of field or insertion order, and JSON zero
// values (null, "", 0, false, empty object/array) are pruned from
// objects, so an absent field and an explicitly zero one digest
// identically — exactly the "zero means default" convention the
// simulator's parameter structs follow. Arrays stay positional, and
// numbers keep the text encoding/json gives them, so 64-bit seeds
// survive verbatim. Do not use it for payloads where zero and absent
// mean different things; DigestJSON is the byte-faithful digest.
//
// CanonicalDigestReference defines the canonical form. Values whose
// type is built from structs, slices, arrays, pointers and scalars
// without custom marshalers — request parameter structs — take a
// streaming path instead: a per-type field plan, built once, walks
// the value and feeds the same canonical bytes straight into FNV-1a,
// with no intermediate JSON and no generic maps. Every other value
// (maps, interfaces, marshalers) takes the reference path.
func CanonicalDigest(v any) (string, error) {
	rv := reflect.ValueOf(v)
	if rv.IsValid() {
		if p := planFor(rv.Type()); p != nil {
			h := fnvHash(fnvOffset)
			if p.encode(&h, rv) {
				return formatDigest(uint64(h)), nil
			}
			// A non-finite float: the reference path reports the error.
		}
	}
	return CanonicalDigestReference(v)
}

// CanonicalDigestReference is the definition of the canonical form and
// the oracle CanonicalDigest is tested against: v is marshaled,
// re-parsed into generic values (numbers as json.Number, so their text
// is kept), pruned of zero object members and marshaled again, which
// sorts every object's keys.
func CanonicalDigestReference(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("metrics: canonical digest: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var g any
	if err := dec.Decode(&g); err != nil {
		return "", fmt.Errorf("metrics: canonical digest: %w", err)
	}
	g, _ = pruneZero(g)
	return DigestJSON(g)
}

// pruneZero canonicalizes a generic JSON value: object members whose
// values are JSON zeroes vanish, arrays keep their length (elements
// are positional, only their members are pruned). The second return
// reports whether the pruned value is itself a JSON zero.
func pruneZero(v any) (any, bool) {
	switch x := v.(type) {
	case nil:
		return nil, true
	case bool:
		return x, !x
	case string:
		return x, x == ""
	case json.Number:
		f, err := x.Float64()
		return x, err == nil && f == 0
	case float64: // only when the caller skipped UseNumber
		return x, x == 0
	case []any:
		for i := range x {
			x[i], _ = pruneZero(x[i])
		}
		return x, len(x) == 0
	case map[string]any:
		for k, mv := range x {
			pv, zero := pruneZero(mv)
			if zero {
				delete(x, k)
				continue
			}
			x[k] = pv
		}
		return x, len(x) == 0
	}
	return v, false
}

// FNV-1a 64, inline so the streaming path hashes without an interface
// call per byte.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

type fnvHash uint64

func (h *fnvHash) byte(b byte) { *h = (*h ^ fnvHash(b)) * fnvPrime }

func (h *fnvHash) write(b []byte) {
	x := *h
	for _, c := range b {
		x = (x ^ fnvHash(c)) * fnvPrime
	}
	*h = x
}

func (h *fnvHash) writeString(s string) {
	x := *h
	for i := 0; i < len(s); i++ {
		x = (x ^ fnvHash(s[i])) * fnvPrime
	}
	*h = x
}

// formatDigest renders a hash the way DigestJSON does ("fnv1a:%016x").
func formatDigest(sum uint64) string {
	const hexDigits = "0123456789abcdef"
	var b [22]byte
	copy(b[:], "fnv1a:")
	for i := 21; i >= 6; i-- {
		b[i] = hexDigits[sum&0xf]
		sum >>= 4
	}
	return string(b[:])
}

// encPlan is how the streaming path encodes one type: its kind, and
// for composite kinds the element plan or the struct's fields in
// canonical (bytewise JSON-name) order.
type encPlan struct {
	kind   reflect.Kind
	bits   int         // float
	elem   *encPlan    // slice, array, pointer
	fields []fieldPlan // struct
}

type fieldPlan struct {
	index int
	key   string // the member's name, JSON-escaped and quoted, plus ':'
	plan  *encPlan
}

var (
	planCache  sync.Map // reflect.Type -> *encPlan (nil: reference path)
	marshaler  = reflect.TypeFor[json.Marshaler]()
	tmarshaler = reflect.TypeFor[encoding.TextMarshaler]()
	numberType = reflect.TypeFor[json.Number]()
)

// planFor returns t's streaming plan, or nil when t needs the
// reference path. Plans are built once per type (two goroutines racing
// on a new type may both build it; the plans are equal).
func planFor(t reflect.Type) *encPlan {
	if p, ok := planCache.Load(t); ok {
		return p.(*encPlan)
	}
	p, _ := planCache.LoadOrStore(t, buildPlan(t, map[reflect.Type]bool{}))
	return p.(*encPlan)
}

// buildPlan builds t's plan, or returns nil if any part of t is
// outside the streaming subset: maps, interfaces, byte slices, custom
// marshalers, json.Number, embedded or string-quoted fields, omitzero,
// duplicate member names, recursive types, and kinds encoding/json
// rejects.
func buildPlan(t reflect.Type, inProgress map[reflect.Type]bool) *encPlan {
	if t.Implements(marshaler) || reflect.PointerTo(t).Implements(marshaler) ||
		t.Implements(tmarshaler) || reflect.PointerTo(t).Implements(tmarshaler) ||
		t == numberType || inProgress[t] {
		return nil
	}
	p := &encPlan{kind: t.Kind()}
	switch p.kind {
	case reflect.Float32, reflect.Float64:
		p.bits = t.Bits()
		return p
	case reflect.Bool, reflect.String,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return p
	case reflect.Slice, reflect.Array, reflect.Pointer:
		if p.kind == reflect.Slice && t.Elem().Kind() == reflect.Uint8 {
			return nil // base64 string
		}
		inProgress[t] = true
		p.elem = buildPlan(t.Elem(), inProgress)
		delete(inProgress, t)
		if p.elem == nil {
			return nil
		}
		return p
	case reflect.Struct:
		inProgress[t] = true
		defer delete(inProgress, t)
		names := map[string]bool{}
		type named struct {
			name string
			fp   fieldPlan
		}
		var fs []named
		for i := 0; i < t.NumField(); i++ {
			sf := t.Field(i)
			if sf.Anonymous {
				return nil
			}
			if !sf.IsExported() {
				continue
			}
			tag := sf.Tag.Get("json")
			if tag == "-" {
				continue
			}
			name, opts, _ := strings.Cut(tag, ",")
			for _, o := range strings.Split(opts, ",") {
				if o == "string" || o == "omitzero" {
					return nil
				}
			}
			if !validTag(name) {
				name = sf.Name
			}
			if names[name] {
				return nil
			}
			names[name] = true
			fp := buildPlan(sf.Type, inProgress)
			if fp == nil {
				return nil
			}
			key := appendJSONString(nil, name)
			fs = append(fs, named{name, fieldPlan{index: i, key: string(append(key, ':')), plan: fp}})
		}
		slices.SortFunc(fs, func(a, b named) int { return strings.Compare(a.name, b.name) })
		for _, f := range fs {
			p.fields = append(p.fields, f.fp)
		}
		return p
	}
	return nil
}

// validTag mirrors encoding/json's rule for usable tag names.
func validTag(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		switch {
		case strings.ContainsRune("!#$%&()*+-./:;<=>?@[]^_{|}~ ", c):
		case !unicode.IsLetter(c) && !unicode.IsDigit(c):
			return false
		}
	}
	return true
}

// isZero reports whether v's canonical form is a JSON zero, the test
// that prunes an object member.
func (p *encPlan) isZero(v reflect.Value) bool {
	switch p.kind {
	case reflect.Bool:
		return !v.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return v.Int() == 0
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return v.Uint() == 0
	case reflect.Float32, reflect.Float64:
		return v.Float() == 0
	case reflect.String, reflect.Slice, reflect.Array:
		return v.Len() == 0
	case reflect.Pointer:
		return v.IsNil() || p.elem.isZero(v.Elem())
	case reflect.Struct:
		for i := range p.fields {
			f := &p.fields[i]
			if !f.plan.isZero(v.Field(f.index)) {
				return false
			}
		}
		return true
	}
	return false
}

// encode hashes v's canonical bytes. It reports false on a value
// encoding/json cannot marshal (a non-finite float).
func (p *encPlan) encode(h *fnvHash, v reflect.Value) bool {
	var buf [32]byte
	switch p.kind {
	case reflect.Bool:
		if v.Bool() {
			h.writeString("true")
		} else {
			h.writeString("false")
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		h.write(strconv.AppendInt(buf[:0], v.Int(), 10))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		h.write(strconv.AppendUint(buf[:0], v.Uint(), 10))
	case reflect.Float32, reflect.Float64:
		b, ok := appendJSONFloat(buf[:0], v.Float(), p.bits)
		if !ok {
			return false
		}
		h.write(b)
	case reflect.String:
		hashJSONString(h, v.String())
	case reflect.Slice, reflect.Array:
		if p.kind == reflect.Slice && v.IsNil() {
			h.writeString("null")
			return true
		}
		h.byte('[')
		for i := 0; i < v.Len(); i++ {
			if i > 0 {
				h.byte(',')
			}
			if !p.elem.encode(h, v.Index(i)) {
				return false
			}
		}
		h.byte(']')
	case reflect.Pointer:
		if v.IsNil() {
			h.writeString("null")
			return true
		}
		return p.elem.encode(h, v.Elem())
	case reflect.Struct:
		h.byte('{')
		first := true
		for i := range p.fields {
			f := &p.fields[i]
			fv := v.Field(f.index)
			if f.plan.isZero(fv) {
				continue
			}
			if !first {
				h.byte(',')
			}
			first = false
			h.writeString(f.key)
			if !f.plan.encode(h, fv) {
				return false
			}
		}
		h.byte('}')
	}
	return true
}

// appendJSONFloat formats f as encoding/json does: shortest
// round-trip digits, 'e' notation below 1e-6 and from 1e21 on, with
// the exponent's leading zero removed. It reports false for NaN and
// ±Inf, which encoding/json refuses.
func appendJSONFloat(b []byte, f float64, bits int) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 {
		if bits == 64 && (abs < 1e-6 || abs >= 1e21) || bits == 32 && (float32(abs) < 1e-6 || float32(abs) >= 1e21) {
			format = 'e'
		}
	}
	b = strconv.AppendFloat(b, f, format, -1, bits)
	if format == 'e' {
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

// hashJSONString hashes s as it reads after the reference path's
// marshal → parse → marshal: encoding/json's escaping with HTML
// escapes, except that an invalid UTF-8 byte, which the first marshal
// turns into \ufffd and the parse into U+FFFD, ends up as that rune's
// raw UTF-8 bytes.
func hashJSONString(h *fnvHash, s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c >= utf8.RuneSelf || !htmlSafe(c) {
			var buf [64]byte
			h.write(appendJSONString(buf[:0], s))
			return
		}
	}
	h.byte('"')
	h.writeString(s)
	h.byte('"')
}

// htmlSafe reports whether encoding/json writes ASCII byte c verbatim
// under HTML escaping.
func htmlSafe(c byte) bool {
	return c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// appendJSONString is the slow path of hashJSONString: the quoted,
// escaped form of s.
func appendJSONString(dst []byte, s string) []byte {
	const hexDigits = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe(c) {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = utf8.AppendRune(dst, utf8.RuneError)
			i++
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

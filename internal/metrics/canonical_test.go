package metrics

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
)

// TestCanonicalDigestFieldOrder is the cache-key contract: the same
// request must digest identically whether it arrives as a Go struct
// (fixed field order) or as decoded JSON whose members were written in
// any order.
func TestCanonicalDigestFieldOrder(t *testing.T) {
	type params struct {
		Width, Height int
		Algorithm     string
		Rate          float64
		Seed          int64
	}
	p := params{Width: 10, Height: 10, Algorithm: "Duato", Rate: 0.002, Seed: 42}
	want, err := CanonicalDigest(p)
	if err != nil {
		t.Fatal(err)
	}

	for _, doc := range []string{
		`{"Width":10,"Height":10,"Algorithm":"Duato","Rate":0.002,"Seed":42}`,
		`{"Seed":42,"Rate":0.002,"Algorithm":"Duato","Height":10,"Width":10}`,
	} {
		var g map[string]any
		if err := json.Unmarshal([]byte(doc), &g); err != nil {
			t.Fatal(err)
		}
		got, err := CanonicalDigest(g)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("CanonicalDigest(%s) = %s, want %s", doc, got, want)
		}
	}
}

// TestCanonicalDigestZeroFields: absent, null and explicitly zero
// members are the same request; non-zero differences are not.
func TestCanonicalDigestZeroFields(t *testing.T) {
	base, err := CanonicalDigest(map[string]any{"Width": 10, "Rate": 0.002})
	if err != nil {
		t.Fatal(err)
	}
	same := []map[string]any{
		{"Width": 10, "Rate": 0.002, "Faults": 0},
		{"Width": 10, "Rate": 0.002, "Topology": ""},
		{"Width": 10, "Rate": 0.002, "TraceFlits": false},
		{"Width": 10, "Rate": 0.002, "FaultNodes": nil},
		{"Width": 10, "Rate": 0.002, "FaultNodes": []any{}},
		{"Width": 10, "Rate": 0.002, "Config": map[string]any{}},
	}
	for _, m := range same {
		if got, _ := CanonicalDigest(m); got != base {
			t.Errorf("CanonicalDigest(%v) = %s, want %s (zero member must prune)", m, got, base)
		}
	}
	if got, _ := CanonicalDigest(map[string]any{"Width": 10, "Rate": 0.004}); got == base {
		t.Error("different Rate collided with base digest")
	}
	// Array elements are positional: zeroes inside arrays must survive.
	a1, _ := CanonicalDigest(map[string]any{"FaultNodes": []any{0, 5}})
	a2, _ := CanonicalDigest(map[string]any{"FaultNodes": []any{5}})
	if a1 == a2 {
		t.Error("zero array element was pruned; array positions must be preserved")
	}
}

// TestCanonicalDigestLargeSeeds: 64-bit values beyond float64's exact
// integer range must not be rounded into collision.
func TestCanonicalDigestLargeSeeds(t *testing.T) {
	d1, _ := CanonicalDigest(map[string]any{"Seed": int64(1) << 62})
	d2, _ := CanonicalDigest(map[string]any{"Seed": int64(1)<<62 + 1})
	if d1 == d2 {
		t.Error("adjacent 63-bit seeds collided (float64 rounding in canonicalization)")
	}
}

// TestManifestParamsDigest: NewManifest stamps the canonical params
// digest so a manifest and a serve cache entry for the same run agree
// on the content address.
func TestManifestParamsDigest(t *testing.T) {
	type params struct{ Width int }
	m := NewManifest("test", params{Width: 10})
	want, err := CanonicalDigest(params{Width: 10})
	if err != nil {
		t.Fatal(err)
	}
	if m.ParamsDigest != want {
		t.Errorf("ParamsDigest = %q, want %q", m.ParamsDigest, want)
	}
	if NewManifest("test", nil).ParamsDigest != "" {
		t.Error("nil params produced a non-empty digest")
	}
}

// streamProbe exercises every shape the streaming encoder handles:
// renamed, skipped and unexported fields, nested and pointed-to
// structs, arrays and slices of each, every number width, and strings
// that need escaping.
type streamProbe struct {
	B      bool
	I8     int8
	I      int `json:"renamed"`
	I64    int64
	U8     uint8
	U64    uint64 `json:"u64,omitempty"`
	F32    float32
	F64    float64
	S      string `json:"s!#"`
	Skip   string `json:"-"`
	Dash   string `json:"-,"`
	hidden int
	Bad    int `json:"bad\"tag"`
	Inner  streamInner
	PInner *streamInner
	PF     *float64
	Arr    [3]int16
	Empty  [0]int
	Inners []streamInner
	PS     []*streamInner
	Nested [][]int32
	Grid   [2][2]float64
}

type streamInner struct {
	Z     float64
	A     string
	Flags []bool
}

// TestCanonicalDigestStreamingMatchesReference: the streaming path
// reproduces the reference digest on random values of every shape it
// takes, zero members and zero elements included.
func TestCanonicalDigestStreamingMatchesReference(t *testing.T) {
	if planFor(reflect.TypeFor[streamProbe]()) == nil {
		t.Fatal("streamProbe fell back to the reference path")
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 3000; i++ {
		v := randomProbe(rng)
		want, err := CanonicalDigestReference(v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := CanonicalDigest(v)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			js, _ := json.Marshal(v)
			t.Fatalf("value %d: streaming %s, reference %s for %s", i, got, want, js)
		}
		if got2, _ := CanonicalDigest(&v); got2 != want {
			t.Fatalf("value %d: pointer digests %s, value %s", i, got2, want)
		}
	}
	for _, v := range []any{streamProbe{}, (*streamProbe)(nil), 0, -0.0, "", []int(nil), [0]int{}} {
		want, _ := CanonicalDigestReference(v)
		if got, _ := CanonicalDigest(v); got != want {
			t.Errorf("CanonicalDigest(%#v) = %s, reference %s", v, got, want)
		}
	}
}

// TestCanonicalDigestReferenceFallback: types outside the streaming
// subset take the reference path, and a non-finite float fails the
// same way on both paths.
func TestCanonicalDigestReferenceFallback(t *testing.T) {
	type withMap struct{ M map[string]int }
	type withIface struct{ X any }
	type withBytes struct{ B []byte }
	type withNumber struct{ N json.Number }
	type withQuoted struct {
		N int `json:",string"`
	}
	type embedded struct{ streamInner }
	for _, v := range []any{withMap{}, withIface{}, withBytes{}, withNumber{}, withQuoted{}, embedded{}, map[string]int{}} {
		if planFor(reflect.TypeOf(v)) != nil {
			t.Errorf("%T took the streaming path", v)
		}
	}
	_, errS := CanonicalDigest(streamInner{Z: math.NaN()})
	_, errR := CanonicalDigestReference(streamInner{Z: math.NaN()})
	if errS == nil || errR == nil || errS.Error() != errR.Error() {
		t.Errorf("NaN: streaming error %v, reference error %v", errS, errR)
	}
}

// probeStrings need every escape encoding/json knows: quotes,
// backslashes, control bytes, HTML characters, U+2028/U+2029 and
// invalid UTF-8.
var probeStrings = []string{"", "Duato", "a\"b\\c", "tab\tnl\n\r\b\f\x01\x1f\x7f", "<a&b>", "line\u2028sep\u2029", "bad\xffutf8\xc3", "ünï", "€"}

func randomProbe(rng *rand.Rand) streamProbe {
	pick := func() bool { return rng.IntN(2) == 0 }
	str := func() string { return probeStrings[rng.IntN(len(probeStrings))] }
	inner := func() streamInner {
		in := streamInner{}
		if pick() {
			in.Z = randomFloat(rng)
		}
		if pick() {
			in.A = str()
		}
		if pick() {
			in.Flags = make([]bool, rng.IntN(3))
			for i := range in.Flags {
				in.Flags[i] = pick()
			}
		}
		return in
	}
	v := streamProbe{Skip: "skipped", hidden: 7}
	if pick() {
		v.B = true
	}
	if pick() {
		v.I8 = int8(rng.IntN(256) - 128)
	}
	if pick() {
		v.I = rng.IntN(1000) - 500
	}
	if pick() {
		v.I64 = int64(rng.Uint64())
	}
	if pick() {
		v.U8 = uint8(rng.IntN(256))
	}
	if pick() {
		v.U64 = rng.Uint64()
	}
	if pick() {
		v.F32 = float32(randomFloat(rng))
	}
	if pick() {
		v.F64 = randomFloat(rng)
	}
	v.S, v.Dash, v.Bad = str(), str(), rng.IntN(3)
	if pick() {
		v.Inner = inner()
	}
	if pick() {
		in := inner()
		v.PInner = &in
	}
	if pick() {
		f := randomFloat(rng)
		v.PF = &f
	}
	if pick() {
		v.Arr = [3]int16{int16(rng.IntN(3)), 0, int16(rng.IntN(3))}
	}
	if pick() {
		v.Inners = make([]streamInner, rng.IntN(3))
		for i := range v.Inners {
			v.Inners[i] = inner()
		}
	}
	if pick() {
		v.PS = make([]*streamInner, rng.IntN(3))
		for i := range v.PS {
			if pick() {
				in := inner()
				v.PS[i] = &in
			}
		}
	}
	if pick() {
		v.Nested = [][]int32{nil, {}, {int32(rng.IntN(5))}}[:rng.IntN(4)]
	}
	if pick() {
		v.Grid[rng.IntN(2)][rng.IntN(2)] = randomFloat(rng)
	}
	return v
}

// randomFloat draws zeros of both signs, the 'f'/'e' format cutoffs
// and ordinary values.
func randomFloat(rng *rand.Rand) float64 {
	switch rng.IntN(8) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return []float64{1e-6, 9.99e-7, 1e21, 9.99e20, 1e-7, 5e-324, math.MaxFloat32}[rng.IntN(7)]
	case 3:
		return -rng.Float64() * 1e-5
	case 4:
		return rng.Float64() * 1e25
	default:
		return rng.NormFloat64()
	}
}

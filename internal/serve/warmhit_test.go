package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"

	"wormmesh/internal/metrics"
	"wormmesh/internal/sim"
)

// Warm-hit budgets: the key of a request and a memory hit through the
// full handler stack, in heap allocations. The reference digest
// (marshal, re-parse, prune, re-marshal) alone costs ~150.
const (
	keyAllocBudget     = 8
	handlerAllocBudget = 60
)

// TestWarmHitAllocBudget pins the hit path's cost: Key over the pinned
// request bodies, and a memory-hit POST /run through Server.Handler
// into a recorder, building the request and the recorder included.
func TestWarmHitAllocBudget(t *testing.T) {
	for _, c := range keyPins {
		var p sim.Params
		if err := json.Unmarshal([]byte(c.body), &p); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() { _, _, _ = Key(p) }); n > keyAllocBudget {
			t.Errorf("%s: Key allocates %.0f times, budget %d", c.name, n, keyAllocBudget)
		}
	}

	s, err := New(Config{Workers: 1, TraceSpans: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p := quickParams()
	key, np, err := Key(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.cache.Put(&Entry{Key: key, Provenance: "simulated", Params: np}); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(runRequest{Params: p})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	post := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(body)))
		return rec
	}
	if rec := post(); rec.Code != http.StatusOK || rec.Header().Get("X-Cache-Tier") != TierMemory {
		t.Fatalf("warm request: status %d, tier %q", rec.Code, rec.Header().Get("X-Cache-Tier"))
	}
	if n := testing.AllocsPerRun(100, func() { post() }); n > handlerAllocBudget {
		t.Errorf("memory-hit POST /run allocates %.0f times, budget %d", n, handlerAllocBudget)
	}
}

// TestKeyCoversEveryParamsField: with every exported sim.Params field
// set, found by reflection so a field added later is included, the
// streaming digest equals the reference; and every field outside the
// json:"-" observers moves the digest on its own, so none can drift
// out of the key.
func TestKeyCoversEveryParamsField(t *testing.T) {
	var full sim.Params
	fillNonZero(reflect.ValueOf(&full).Elem())
	checkDigestMatchesReference(t, "every field set", full)

	zero, err := metrics.CanonicalDigest(sim.Params{})
	if err != nil {
		t.Fatal(err)
	}
	pt := reflect.TypeFor[sim.Params]()
	for i := 0; i < pt.NumField(); i++ {
		f := pt.Field(i)
		if !f.IsExported() {
			continue
		}
		var p sim.Params
		fillNonZero(reflect.ValueOf(&p).Elem().Field(i))
		d := checkDigestMatchesReference(t, f.Name, p)
		if ignored := f.Tag.Get("json") == "-"; ignored != (d == zero) {
			t.Errorf("field %s (json tag %q): digest moved = %v", f.Name, f.Tag.Get("json"), d != zero)
		}
	}
}

// fillNonZero sets v, and every exported field below it, to a non-zero
// value.
func fillNonZero(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(3)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(2)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(0.25)
	case reflect.String:
		v.SetString("x<&>")
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		fillNonZero(s.Index(1))
		v.Set(s)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Interface:
		if w := reflect.ValueOf(io.Discard); w.Type().Implements(v.Type()) {
			v.Set(w)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillNonZero(v.Field(i))
			}
		}
	}
}

// checkDigestMatchesReference returns p's canonical digest after
// checking the streaming path against the reference.
func checkDigestMatchesReference(t *testing.T, name string, p sim.Params) string {
	t.Helper()
	got, err := metrics.CanonicalDigest(p)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, err := metrics.CanonicalDigestReference(p)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if got != want {
		t.Errorf("%s: streaming digest %s, reference %s", name, got, want)
	}
	return got
}

// FuzzKey decodes arbitrary bodies the way POST /run does. Decoding
// and keying must not panic, and the streaming digest must equal the
// reference for the decoded Params and, where Key accepts them, for
// the normalized Params it files results under.
func FuzzKey(f *testing.F) {
	for _, c := range keyPins {
		f.Add([]byte(`{"params":` + c.body + `}`))
	}
	f.Add([]byte(`{"params":{"Width":4,"Height":4,"Rate":1e-7,"FaultNodes":[0,5],"Topology":"torus","Algorithm":"NHop","Config":{"NumVCs":9,"Selection":2}}}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var req runRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			return
		}
		checkDigestMatchesReference(t, "decoded", req.Params)
		key, np, err := Key(req.Params)
		if err != nil {
			return
		}
		if d := checkDigestMatchesReference(t, "normalized", np); d != key {
			t.Errorf("Key %s, digest of its normalized Params %s", key, d)
		}
	})
}

// FuzzStoreGet writes arbitrary bytes under a key's file: every read
// is a miss or the verified entry for that key, never a panic or an
// error.
func FuzzStoreGet(f *testing.F) {
	const key = "fnv1a:00000000deadbeef"
	good, err := json.Marshal(&Entry{Key: key, Provenance: "simulated"})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{
		good,
		good[:len(good)/2],
		[]byte("not json at all"),
		{},
		[]byte(`{"key":"fnv1a:0000000000000bad","provenance":"simulated"}`),
		[]byte(`{"key":"` + key + `","key":"fnv1a:0000000000000bad"}`),
		[]byte(`{"key":"` + key + `","stats":"not stats"}`),
	} {
		f.Add(seed)
	}
	store, err := OpenStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(store.path(key), data, 0o644); err != nil {
			t.Fatal(err)
		}
		body, err := store.GetBody(key)
		if err != nil {
			t.Fatalf("GetBody errored on a corrupt file: %v", err)
		}
		if body != nil {
			var k struct {
				Key string `json:"key"`
			}
			if !bytes.Equal(body, data) || !json.Valid(body) || json.Unmarshal(body, &k) != nil || k.Key != key {
				t.Fatalf("GetBody served %q as the entry for %s", body, key)
			}
		}
		e, raw, err := store.Get(key)
		if err != nil {
			t.Fatalf("Get errored on a corrupt file: %v", err)
		}
		if e != nil && (e.Key != key || body == nil || !bytes.Equal(raw, data)) {
			t.Fatalf("Get decoded %q into an entry for %s", data, e.Key)
		}
	})
}

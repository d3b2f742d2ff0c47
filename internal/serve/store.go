package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"wormmesh/internal/core"
	"wormmesh/internal/metrics"
	"wormmesh/internal/sim"
)

// Float is a float64 whose JSON form tolerates the non-finite values a
// simulation can legitimately produce (AvgLatency is NaN when nothing
// was measured): NaN and ±Inf marshal as null instead of failing the
// whole document.
type Float float64

// MarshalJSON renders non-finite values as null.
func (f Float) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return strconv.AppendFloat(nil, v, 'g', -1, 64), nil
}

// UnmarshalJSON accepts null as NaN.
func (f *Float) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		*f = Float(math.NaN())
		return nil
	}
	v, err := strconv.ParseFloat(string(data), 64)
	if err != nil {
		return err
	}
	*f = Float(v)
	return nil
}

// Entry is one cached result: the normalized request, the full engine
// Stats (so a hit can reconstruct everything a sim.Result derives), and
// the headline numbers pre-extracted for clients that only plot curves.
// Provenance is always "simulated" — model answers are never cached as
// results (see ModelAnswer).
type Entry struct {
	Key        string `json:"key"`
	Provenance string `json:"provenance"`

	Params sim.Params `json:"params"`
	// ResultDigest is DigestJSON over Stats: the bit-identity token.
	// Two entries for one key always agree on it, whether the result
	// was simulated this process or read back from disk.
	ResultDigest string     `json:"result_digest"`
	Stats        core.Stats `json:"stats"`

	Latency          Float   `json:"latency_cycles"`
	Accepted         Float   `json:"accepted_flits"`
	Normalized       Float   `json:"normalized_throughput"`
	FaultCount       int     `json:"fault_count,omitempty"`
	SeedFaults       int     `json:"seed_faults,omitempty"`
	RingNodes        int     `json:"ring_nodes,omitempty"`
	Regions          int     `json:"regions,omitempty"`
	UndeliveredAtEnd int     `json:"undelivered_at_end,omitempty"`
	ElapsedSeconds   float64 `json:"elapsed_seconds"`
}

// NewEntry files a simulation result under its key.
func NewEntry(key string, np sim.Params, res sim.Result) (*Entry, error) {
	rd, err := metrics.DigestJSON(res.Stats)
	if err != nil {
		return nil, err
	}
	return &Entry{
		Key:              key,
		Provenance:       "simulated",
		Params:           np,
		ResultDigest:     rd,
		Stats:            res.Stats,
		Latency:          Float(res.Stats.AvgLatency()),
		Accepted:         Float(res.Stats.Throughput()),
		Normalized:       Float(res.NormalizedThroughput()),
		FaultCount:       res.FaultCount,
		SeedFaults:       res.SeedFaults,
		RingNodes:        res.RingNodes,
		Regions:          res.Regions,
		UndeliveredAtEnd: res.UndeliveredAtEnd,
		ElapsedSeconds:   res.Elapsed.Seconds(),
	}, nil
}

// Result reconstructs a sim.Result from the entry for callers (sweep
// cache hits) that consume results structurally. The fault model and
// per-link telemetry are not stored, so Faults/Links are nil; every
// statistic is exact.
func (e *Entry) Result() sim.Result {
	return sim.Result{
		Params:           e.Params,
		Stats:            e.Stats,
		FaultCount:       e.FaultCount,
		SeedFaults:       e.SeedFaults,
		RingNodes:        e.RingNodes,
		Regions:          e.Regions,
		UndeliveredAtEnd: e.UndeliveredAtEnd,
	}
}

// Store is the disk tier: one JSON file per digest under dir, written
// atomically (temp file + rename) so a crashed or concurrent writer can
// never leave a torn file behind — a reader sees the old bytes, the new
// bytes, or no file. Corruption of any kind (truncation, bit rot, a
// foreign file under our name) degrades to a cache miss: a body is
// served only once it is verified to be the entry filed under its key.
type Store struct {
	dir string
}

// OpenStore opens (creating if needed) a disk store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// path maps a digest to its file. Digests are "fnv1a:%016x"; the colon
// is replaced for portability to filesystems that reserve it.
func (s *Store) path(key string) string {
	return filepath.Join(s.dir, strings.ReplaceAll(key, ":", "-")+".json")
}

// GetBody reads the stored body for key without decoding the entry —
// the warm-hit path, which serves the bytes verbatim. Misses and
// unreadable or corrupt files both return (nil, nil): the caller
// recomputes, and the next Put overwrites the bad file.
func (s *Store) GetBody(key string) ([]byte, error) {
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("serve: store: %w", err)
	}
	if !bodyIsEntryFor(data, key) {
		return nil, nil // corrupt or foreign: treat as a miss
	}
	return data, nil
}

// bodyIsEntryFor verifies a stored body without decoding the entry: it
// must open with key's "key" member — Entry marshals Key first, so
// every body the store wrote does — and be one valid JSON document
// whose "key" decodes to key (a later member spelling the name again
// would win in a decode). The check scans the body and decodes one
// string field, against a full Entry decode.
func bodyIsEntryFor(body []byte, key string) bool {
	const open = `{"key":"`
	rest, ok := bytes.CutPrefix(body, []byte(open))
	if !ok || !bytes.HasPrefix(rest, []byte(key)) {
		return false
	}
	rest = rest[len(key):]
	if len(rest) < 2 || rest[0] != '"' || (rest[1] != ',' && rest[1] != '}') {
		return false
	}
	var k struct {
		Key string `json:"key"`
	}
	return json.Unmarshal(body, &k) == nil && k.Key == key
}

// Get reads and decodes the entry for key, for callers that consume
// the entry rather than serve its body; the verified raw bytes are
// returned alongside. A body that fails to decode is a miss too.
func (s *Store) Get(key string) (*Entry, []byte, error) {
	data, err := s.GetBody(key)
	if data == nil {
		return nil, nil, err
	}
	e, ok := decodeEntry(data, key)
	if !ok {
		return nil, nil, nil
	}
	return e, data, nil
}

// decodeEntry decodes a verified body; ok is false when it does not
// decode into the entry for key.
func decodeEntry(body []byte, key string) (*Entry, bool) {
	var e Entry
	if err := json.Unmarshal(body, &e); err != nil || e.Key != key {
		return nil, false
	}
	return &e, true
}

// Put writes body (the marshaled entry) under key atomically.
func (s *Store) Put(key string, body []byte) error {
	tmp, err := os.CreateTemp(s.dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("serve: store: %w", err)
	}
	name := tmp.Name()
	if _, err := tmp.Write(body); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("serve: store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return fmt.Errorf("serve: store: %w", err)
	}
	if err := os.Rename(name, s.path(key)); err != nil {
		os.Remove(name)
		return fmt.Errorf("serve: store: %w", err)
	}
	return nil
}

// Probe verifies the store directory is still writable — the readiness
// check behind /readyz. It creates and removes a temp file; a full or
// read-only disk fails here before it fails a real Put.
func (s *Store) Probe() error {
	tmp, err := os.CreateTemp(s.dir, "probe-*.tmp")
	if err != nil {
		return fmt.Errorf("serve: store: %w", err)
	}
	name := tmp.Name()
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return fmt.Errorf("serve: store: %w", err)
	}
	if err := os.Remove(name); err != nil {
		return fmt.Errorf("serve: store: %w", err)
	}
	return nil
}

// Has reports whether key is present on disk without reading the body.
func (s *Store) Has(key string) bool {
	_, err := os.Stat(s.path(key))
	return err == nil
}

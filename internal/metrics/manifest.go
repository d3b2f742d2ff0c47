package metrics

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"time"
)

// Manifest is the per-run provenance record a driver writes next to
// its outputs: what was run (tool, arguments, parameters, seeds), when
// and for how long, and a digest of the results so two runs can be
// compared for bit-identity without diffing full CSVs. It marshals to
// a single JSON document.
type Manifest struct {
	Tool      string    `json:"tool"`
	Args      []string  `json:"args,omitempty"`
	GoVersion string    `json:"go_version"`
	Started   time.Time `json:"started"`
	Finished  time.Time `json:"finished,omitempty"`
	// WallSeconds is the run's wall-clock duration.
	WallSeconds float64 `json:"wall_seconds,omitempty"`
	// Params is the driver's parameter struct, marshaled verbatim
	// (writers embedded in parameter structs must carry json:"-").
	Params any `json:"params,omitempty"`
	// ParamsDigest is CanonicalDigest over Params — the content address
	// a result cache (internal/serve) would file this run under. Equal
	// digests mean semantically identical parameters regardless of JSON
	// field order or defaulted-vs-explicit zero fields.
	ParamsDigest string `json:"params_digest,omitempty"`
	// Seeds lists the traffic/arbitration seeds the run consumed.
	Seeds []int64 `json:"seeds,omitempty"`
	// ResultDigest is DigestJSON over the driver's result payload —
	// fast equality, not cryptographic integrity.
	ResultDigest string `json:"result_digest,omitempty"`
	// EffectiveWarmupCycles is how many warm-up cycles the run actually
	// discarded — the detected truncation point under adaptive warm-up
	// ("mser"), the fixed WarmupCycles otherwise. Zero when the driver
	// did not run a measured simulation.
	EffectiveWarmupCycles int64 `json:"effective_warmup_cycles,omitempty"`
	// LatencyCIHalfWidth is the 95% batch-means confidence half-width
	// on mean latency at the moment the run stopped; set only when the
	// relative-precision stopping rule was active.
	LatencyCIHalfWidth float64 `json:"latency_ci_half_width,omitempty"`
	// Notes carries driver-specific annotations, such as the per-cell
	// simulated/model provenance of a hybrid sweep.
	Notes map[string]any `json:"notes,omitempty"`
}

// NewManifest starts a manifest for the named tool, stamping the start
// time, the command line and the Go toolchain version.
func NewManifest(tool string, params any) *Manifest {
	m := &Manifest{
		Tool:      tool,
		Args:      append([]string(nil), os.Args[1:]...),
		GoVersion: runtime.Version(),
		Started:   time.Now(),
		Params:    params,
	}
	if params != nil {
		if d, err := CanonicalDigest(params); err == nil {
			m.ParamsDigest = d
		}
	}
	return m
}

// Finish stamps the end time and wall duration and digests the result
// payload (nil results leave the digest empty).
func (m *Manifest) Finish(results any) error {
	m.Finished = time.Now()
	m.WallSeconds = m.Finished.Sub(m.Started).Seconds()
	if results != nil {
		d, err := DigestJSON(results)
		if err != nil {
			return err
		}
		m.ResultDigest = d
	}
	return nil
}

// WriteFile marshals the manifest (indented, trailing newline) to
// path, truncating any existing file.
func (m *Manifest) WriteFile(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("metrics: manifest: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// DigestJSON returns a short stable digest (FNV-1a 64 over the JSON
// encoding) of any marshalable value. Go's json encoding is
// deterministic for a fixed value — struct fields keep declaration
// order, maps are key-sorted — so equal values yield equal digests.
func DigestJSON(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("metrics: digest: %w", err)
	}
	h := fnv.New64a()
	_, _ = h.Write(data)
	return fmt.Sprintf("fnv1a:%016x", h.Sum64()), nil
}

package serve

import (
	"encoding/json"
	"testing"

	"wormmesh/internal/sim"
)

// keyPins are cache keys recorded while sim.Params still carried the
// WindowCycles and MetricsInterval observer fields. Request bodies are
// decoded the way /run and /sweep decode them, so the pins cover the
// two CI smoke requests (one /run body, the four cells of the /sweep
// body), one MSER cell, one stopping-rule cell, and a body that still
// spells the deleted fields — which must decode to the plain key.
// Every -cache directory written before the fields went away keeps
// hitting only while these hold.
var keyPins = []struct{ name, body, key string }{
	{"run smoke", `{` + smokeBase + `,"Rate":0.002}`, "fnv1a:d32c19b009c6f409"},
	{"sweep Duato@0.002", `{` + smokeBase + `,"Algorithm":"Duato","Rate":0.002}`, "fnv1a:d32c19b009c6f409"},
	{"sweep Duato@0.004", `{` + smokeBase + `,"Algorithm":"Duato","Rate":0.004}`, "fnv1a:5f1628fbd32d73c3"},
	{"sweep Minimal-Adaptive@0.002", `{` + smokeBase + `,"Algorithm":"Minimal-Adaptive","Rate":0.002}`, "fnv1a:9444c5e382249150"},
	{"sweep Minimal-Adaptive@0.004", `{` + smokeBase + `,"Algorithm":"Minimal-Adaptive","Rate":0.004}`, "fnv1a:179b0c429a471412"},
	{"mser", `{` + smokeBase + `,"Rate":0.002,"WarmupMode":"mser","SteadyWindow":100}`, "fnv1a:731adb52be6c1244"},
	{"stop-rel", `{` + smokeBase + `,"Rate":0.002,"StopRelPrecision":0.1}`, "fnv1a:5bdb69c6913a70c0"},
	{"deleted fields", `{` + smokeBase + `,"Rate":0.002,"WindowCycles":100,"MetricsInterval":64}`, "fnv1a:d32c19b009c6f409"},
}

// smokeBase is the CI smoke requests' shared cell.
const smokeBase = `"Width":6,"Height":6,"MessageLength":20,"WarmupCycles":200,"MeasureCycles":800`

func TestKeyPinned(t *testing.T) {
	for _, c := range keyPins {
		var p sim.Params
		if err := json.Unmarshal([]byte(c.body), &p); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		key, _, err := Key(p)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if key != c.key {
			t.Errorf("%s: key %s, pinned %s", c.name, key, c.key)
		}
	}
}

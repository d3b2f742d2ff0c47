package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain doubles the test binary as experiments itself: a child
// started with EXPERIMENTS_RUN_MAIN=1 runs main on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("EXPERIMENTS_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestCacheCountsObservedBypass: the hotspot study turns link
// telemetry on in every cell, so no cell may be answered from the
// cache — but the summary line must still account for every lookup
// rather than report an idle cache.
func TestCacheCountsObservedBypass(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	var line string
	for run := 1; run <= 2; run++ {
		cmd := exec.Command(os.Args[0], "-quick", "-algs", "Duato", "-cache", dir, "hotspot")
		cmd.Env = append(os.Environ(), "EXPERIMENTS_RUN_MAIN=1")
		var stderr strings.Builder
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("run %d: %v\n%s", run, err, stderr.String())
		}
		for _, l := range strings.Split(stderr.String(), "\n") {
			if strings.HasPrefix(l, "experiments: cache:") {
				line = l
			}
		}
	}
	if want := "0 hits (0 from disk), 0 misses, 8 bypassed (observed)"; !strings.HasSuffix(line, want) {
		t.Errorf("second run cache line %q, want suffix %q", line, want)
	}
}

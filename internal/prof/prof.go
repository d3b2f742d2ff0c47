// Package prof wires runtime/pprof into the command-line tools. Both
// cmd/meshsim and cmd/experiments expose -cpuprofile/-memprofile
// flags through it, so a slow sweep can be profiled in place:
//
//	meshsim -rate 0.02 -cycles 200000 -cpuprofile cpu.out
//	go tool pprof cpu.out
//
// go test's own -cpuprofile flag is the benchmark-side counterpart;
// this package exists for profiling real experiment workloads rather
// than micro-benchmarks.
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins CPU profiling to cpuPath and arranges for a heap
// profile to be written to memPath when the returned stop function is
// called. Either path may be empty to skip that profile; with both
// empty, Start is a no-op and stop is still safe to call. The caller
// must invoke stop (typically via defer) before exiting, or the CPU
// profile will be truncated and the heap profile never written.
func Start(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("prof: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("prof: start cpu profile: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "prof:", err)
				return
			}
			defer f.Close()
			// Materialize the live heap before snapshotting so the
			// profile reflects steady state, not GC timing luck.
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "prof: write heap profile:", err)
			}
		}
	}, nil
}

// Package profiling starts and stops the CPU and heap profiles behind
// the commands' -cpuprofile and -memprofile flags, and reads the CPU
// time they report beside their wall time.
package profiling

import (
	"os"
	"runtime"
	"runtime/pprof"
	"syscall"
)

// CPUSeconds is the process's user plus system CPU time so far, from
// getrusage; 0 where that fails.
func CPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// Start begins a CPU profile written to cpu and returns a stop function
// that ends it and then writes a heap profile, taken after a GC, to
// mem. An empty path skips that profile. Start fails if the CPU profile
// cannot be created or started; stop reports the first error from
// finishing either profile.
func Start(cpu, mem string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpu != "" {
		if cpuFile, err = os.Create(cpu); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() error {
		var first error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			first = cpuFile.Close()
		}
		if mem != "" {
			if err := writeHeap(mem); first == nil {
				first = err
			}
		}
		return first
	}, nil
}

// writeHeap writes a heap profile of the live heap to path.
func writeHeap(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

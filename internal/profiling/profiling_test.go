package profiling

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestStartWritesBothProfiles: a started-then-stopped pair of profiles
// leaves a non-empty CPU profile and a non-empty heap profile behind.
func TestStartWritesBothProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	stop, err := Start(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() == 0 {
			t.Errorf("%s is empty", filepath.Base(path))
		}
	}
}

// TestCPUSecondsCountsWork: the process CPU clock moves forward across
// a busy loop.
func TestCPUSecondsCountsWork(t *testing.T) {
	before := CPUSeconds()
	for deadline := time.Now().Add(50 * time.Millisecond); time.Now().Before(deadline); {
	}
	if after := CPUSeconds(); after <= before {
		t.Errorf("CPUSeconds %v after 50 ms of work, %v before", after, before)
	}
}

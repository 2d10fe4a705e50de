package testbed

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/transfer"
)

// benchEngine builds an engine with k concurrent endless transfers at
// the given concurrency, stepped past the ramp so Step runs in steady
// state — the regime cmd/reproduce spends nearly all its time in.
func benchEngine(b *testing.B, k, n int) *Engine {
	b.Helper()
	eng, err := NewEngine(HPCLab(), 1)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < k; i++ {
		id := fmt.Sprintf("t%d", i)
		// 400 TB per file: the tasks cannot drain within any b.N, so
		// every iteration measures the steady-state tick.
		task, err := transfer.NewTask(id, dataset.Uniform(id, 20000, 400*int64(dataset.TB)),
			transfer.Setting{Concurrency: n, Parallelism: 1, Pipelining: 1})
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.AddTask(task); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		eng.Step(0.25)
	}
	return eng
}

// BenchmarkStep measures one full step of a small engine: demand
// construction, max-min allocation, and task advancement for four
// tasks totalling 32 connections. Every Step allocates afresh; the
// arena keeps it free of heap allocations.
func BenchmarkStep(b *testing.B) {
	eng := benchEngine(b, 4, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step(0.25)
	}
}

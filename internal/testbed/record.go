package testbed

import "repro/internal/transfer"

// RecordMode selects what a Scheduler run records. The default,
// RecordFull, keeps per-session trace.Series for throughput,
// concurrency, and loss — O(sessions × samples) memory, which is the
// right fidelity for the pinned reproduce experiments and small fleets
// but dominates the footprint of a million-session run.
// RecordAggregate drops the per-session timelines and instead streams
// every throughput recording point into a caller-supplied Recorder
// (constant space per session).
//
// The recording cadence is identical in both modes — nextRecord
// boundaries still bound each macro-step — so the engine's stepping,
// and therefore every simulated number, is bitwise independent of the
// mode. Only what gets written down differs.
type RecordMode uint8

const (
	// RecordFull records per-session throughput/concurrency/loss
	// series and completion times into the run's Timeline.
	RecordFull RecordMode = iota
	// RecordAggregate streams throughput recording points into the
	// attached Recorder; the returned Timeline stays empty.
	RecordAggregate
)

// Recorder consumes streaming throughput recordings in RecordAggregate
// mode. Attach is called once per session at join time and returns the
// handle Record is keyed by; Record receives the session's current
// rate (Gbps) at each recording boundary while the session is live —
// the same (time, value) points RecordFull would append to the
// session's throughput series.
//
// Sharded runs call Attach and Record concurrently from shard worker
// goroutines, but never for the same session from two goroutines;
// implementations must be safe under that access pattern (e.g. flat
// per-session slots, no shared mutable lookup state in Attach).
type Recorder interface {
	Attach(id string) int32
	Record(handle int32, t, gbps float64)
}

// SetRecording selects the scheduler's record mode. A Recorder is
// required for RecordAggregate and ignored otherwise. Must be called
// before Run.
func (s *Scheduler) SetRecording(mode RecordMode, rec Recorder) {
	if mode == RecordAggregate && rec == nil {
		panic("testbed: RecordAggregate requires a Recorder")
	}
	s.recMode = mode
	s.recorder = rec
}

// initSimEnvironment registers task with eng and overwrites *e with its
// session environment, in place: fleet-scale runs carve their
// environments out of one flat slab instead of a million heap objects.
// It returns an error for duplicate or nil tasks.
func initSimEnvironment(e *SimEnvironment, eng *Engine, task *transfer.Task) error {
	h, err := eng.addTask(task)
	if err != nil {
		return err
	}
	*e = SimEnvironment{eng: eng, task: task, h: h}
	return nil
}

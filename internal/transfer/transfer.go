// Package transfer defines the application-layer semantics of a bulk
// file transfer: the tunable setting (concurrency, parallelism,
// pipelining), the bookkeeping of a running task over a dataset, and
// the pipelining efficiency model that makes command caching matter
// for small files (§4.4 of the paper).
//
// The three knobs follow GridFTP terminology exactly as the paper uses
// them:
//
//   - Concurrency (n): how many files are transferred simultaneously,
//     each with its own I/O thread (process).
//   - Parallelism (p): how many TCP streams carry each file, so a task
//     opens n×p connections in total.
//   - Pipelining (q): how many transfer commands are queued
//     back-to-back on the control channel, hiding the per-file
//     round-trip gap between consecutive files.
package transfer

import (
	"fmt"

	"repro/internal/dataset"
)

// Setting is one point in Falcon's search space.
type Setting struct {
	// Concurrency is the number of files in flight (n ≥ 1).
	Concurrency int
	// Parallelism is the number of streams per file (p ≥ 1).
	Parallelism int
	// Pipelining is the command-queue depth (q ≥ 1).
	Pipelining int
}

// DefaultSetting returns the baseline configuration the paper measures
// first: one file at a time, one stream, no pipelining.
func DefaultSetting() Setting { return Setting{Concurrency: 1, Parallelism: 1, Pipelining: 1} }

// Validate checks that all knobs are at least one.
func (s Setting) Validate() error {
	if s.Concurrency < 1 {
		return fmt.Errorf("transfer: concurrency %d must be ≥ 1", s.Concurrency)
	}
	if s.Parallelism < 1 {
		return fmt.Errorf("transfer: parallelism %d must be ≥ 1", s.Parallelism)
	}
	if s.Pipelining < 1 {
		return fmt.Errorf("transfer: pipelining %d must be ≥ 1", s.Pipelining)
	}
	return nil
}

// String renders the setting as "cc=4 p=2 q=8".
func (s Setting) String() string {
	return fmt.Sprintf("cc=%d p=%d q=%d", s.Concurrency, s.Parallelism, s.Pipelining)
}

// PipelineEfficiency returns the fraction of wall-clock time a transfer
// channel spends moving bytes rather than waiting between files.
//
// Each file costs one control-channel exchange (≈ one RTT) before its
// data flows. With pipelining depth q, commands for the next q files
// are sent back-to-back, so the expected idle gap per file shrinks to
// RTT/q. A channel moving files of mean size S at rate r therefore has
// duty cycle
//
//	eff = (S/r) / (S/r + RTT/q)
//
// Large files (S/r ≫ RTT) are insensitive to q; datasets of 1 KiB–10 MiB
// files over a 60 ms WAN are dominated by it — the paper's motivation
// for tuning pipelining on the "small" and "mixed" datasets.
func PipelineEfficiency(meanFileBytes float64, perFileRate float64, rtt float64, pipelining int) float64 {
	if meanFileBytes <= 0 || perFileRate <= 0 {
		return 1
	}
	if pipelining < 1 {
		pipelining = 1
	}
	if rtt <= 0 {
		return 1
	}
	transferTime := meanFileBytes * 8 / perFileRate
	gap := rtt / float64(pipelining)
	return transferTime / (transferTime + gap)
}

// Task tracks the progress of one transfer job over a dataset. It is
// the pure bookkeeping core shared by the simulated testbeds and the
// real FTP engine: bytes flow in via Advance, files complete in order,
// and the task reports when it is done.
type Task struct {
	id      string
	ds      *dataset.Dataset
	setting Setting
	gen     int // bumped on every SetSetting

	totalBytes int64 // cached dataset size (datasets are immutable)
	files      int   // cached dataset file count
	nextFile   int   // index of the first file not yet fully sent
	head       int64 // size of the file at nextFile; 0 once done
	fileSent   int64 // bytes already sent of the file at nextFile
	bytesDone  int64 // total bytes completed
}

// NewTask creates a task over ds with the given initial setting.
// It returns an error for an invalid setting, a nil or invalid dataset,
// or an empty ID.
func NewTask(id string, ds *dataset.Dataset, s Setting) (*Task, error) {
	if id == "" {
		return nil, fmt.Errorf("transfer: empty task ID")
	}
	if ds == nil {
		return nil, fmt.Errorf("transfer: nil dataset")
	}
	if err := ds.Validate(); err != nil {
		return nil, fmt.Errorf("transfer: %w", err)
	}
	if ds.Count() == 0 {
		return nil, fmt.Errorf("transfer: dataset %q has no files", ds.Label)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &Task{id: id, ds: ds, setting: s, totalBytes: ds.TotalBytes(), files: ds.Count(), head: ds.FileSize(0)}, nil
}

// sizeAt returns the size of file i, or 0 past the last file.
func (t *Task) sizeAt(i int) int64 {
	if i >= t.files {
		return 0
	}
	return t.ds.FileSize(i)
}

// ID returns the task identifier.
func (t *Task) ID() string { return t.id }

// Setting returns the task's current setting.
func (t *Task) Setting() Setting { return t.setting }

// SetSetting changes the task's knobs mid-flight (the optimizer's
// action). It returns an error for invalid settings.
func (t *Task) SetSetting(s Setting) error {
	if err := s.Validate(); err != nil {
		return err
	}
	t.setting = s
	t.gen++
	return nil
}

// Generation returns a counter bumped on every SetSetting. Engines use
// it to detect out-of-band retunes between macro-steps without
// comparing whole settings.
func (t *Task) Generation() int { return t.gen }

// Extend appends count files of the given size to the task's dataset
// mid-transfer — the "dataset grows while the transfer runs"
// disturbance of dynamic scenarios. Datasets are immutable and may be
// shared across tasks, so the task switches to a private grown dataset
// (dataset.Grow); other tasks sharing the original are unaffected. A
// task that had drained its dataset becomes active again and resumes
// with the first appended file. It returns an error for a count or
// size below 1 or a total that overflows int64, and leaves the task
// unchanged.
func (t *Task) Extend(count int, size int64) error {
	grown, err := t.ds.Grow(count, size)
	if err != nil {
		return fmt.Errorf("transfer: Extend: %w", err)
	}
	t.ds = grown
	t.files = grown.Count()
	t.totalBytes = grown.TotalBytes()
	t.head = t.sizeAt(t.nextFile)
	// An extension changes ActiveFiles and HorizonBytes out of band, the
	// same way a retune does; the generation bump lets engines detect it
	// between macro-steps.
	t.gen++
	return nil
}

// Done reports whether every byte of the dataset has been sent.
func (t *Task) Done() bool { return t.nextFile >= t.files }

// BytesRemaining returns the bytes not yet sent.
func (t *Task) BytesRemaining() int64 { return t.totalBytes - t.bytesDone }

// ActiveFiles returns how many files the task would transfer
// simultaneously right now: the configured concurrency, bounded by the
// number of files remaining.
func (t *Task) ActiveFiles() int {
	remaining := t.files - t.nextFile
	if remaining < 0 {
		remaining = 0
	}
	if t.setting.Concurrency < remaining {
		return t.setting.Concurrency
	}
	return remaining
}

// RemainingFiles returns the number of files not yet fully sent.
func (t *Task) RemainingFiles() int {
	remaining := t.files - t.nextFile
	if remaining < 0 {
		remaining = 0
	}
	return remaining
}

// Advance records that the task moved `bytes` bytes during `dt` seconds
// of transfer, completing files in order. Partial progress within a
// file is retained. It returns the number of files completed by this
// call, so engines mirroring task state positionally (struct-of-arrays
// layouts) can update their remaining-file counters without re-reading
// the task. It panics on negative arguments (a simulation bug).
func (t *Task) Advance(bytes int64, dt float64) int {
	if bytes < 0 || dt < 0 {
		panic(fmt.Sprintf("transfer: Advance(%d, %v) negative argument", bytes, dt))
	}
	if t.Done() {
		return 0
	}
	completed := 0
	for bytes > 0 && t.nextFile < t.files {
		need := t.head - t.fileSent
		if bytes < need {
			t.fileSent += bytes
			t.bytesDone += bytes
			return completed
		}
		bytes -= need
		t.bytesDone += need
		t.fileSent = 0
		t.nextFile++
		t.head = t.sizeAt(t.nextFile)
		completed++
	}
	return completed
}

// HorizonBytes returns how many more bytes must complete before the
// task's ActiveFiles count can change: while more than Concurrency
// files remain, finishing a file swaps a queued one in and the count is
// stable, so the horizon is the boundary where only Concurrency files
// are left; once inside that tail, every file completion shrinks the
// count, so the horizon is the head file's remaining bytes. Divided by
// a rate this yields the time-to-next-file-completion event the
// simulator's event-horizon stepping batches up to. Returns 0 when the
// task is done.
func (t *Task) HorizonBytes() int64 {
	remaining := t.files - t.nextFile
	if remaining <= 0 {
		return 0
	}
	if remaining <= t.setting.Concurrency {
		return t.head - t.fileSent
	}
	// Distance to the remaining == Concurrency boundary: everything but
	// the final Concurrency files, arithmetic over a uniform dataset.
	return t.totalBytes - t.ds.TailBytes(t.setting.Concurrency) - t.bytesDone
}

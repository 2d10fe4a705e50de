package transfer

import "repro/internal/dataset"

// Connections returns the total TCP connections the setting opens (n×p).
func (s Setting) Connections() int { return s.Concurrency * s.Parallelism }

// Dataset returns the dataset being transferred.
func (t *Task) Dataset() *dataset.Dataset { return t.ds }

// BytesDone returns the total bytes completed so far.
func (t *Task) BytesDone() int64 { return t.bytesDone }

// ActiveConnections returns ActiveFiles×parallelism — the TCP
// connections currently open.
func (t *Task) ActiveConnections() int { return t.ActiveFiles() * t.setting.Parallelism }

// RemainingMeanFileSize returns the mean size in bytes of files not yet
// completed, used by the pipelining efficiency model. Returns 0 when
// the task is done. Computed in O(1) from the byte counters — this runs
// on every simulation tick.
func (t *Task) RemainingMeanFileSize() float64 {
	remaining := t.files - t.nextFile
	if remaining <= 0 {
		return 0
	}
	sum := t.totalBytes - t.bytesDone
	return float64(sum) / float64(remaining)
}

// Progress returns the completed fraction in [0, 1].
func (t *Task) Progress() float64 {
	if t.totalBytes == 0 {
		return 1
	}
	return float64(t.bytesDone) / float64(t.totalBytes)
}

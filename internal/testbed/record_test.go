package testbed

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/session"
	"repro/internal/trace"
)

// captureRecorder is a Recorder that keeps every streamed point, keyed
// by the attached session ID, so tests can compare the aggregate-mode
// stream against full-mode timelines point for point.
type captureRecorder struct {
	ids    []string
	points map[string][]trace.Point
}

func newCaptureRecorder() *captureRecorder {
	return &captureRecorder{points: make(map[string][]trace.Point)}
}

func (c *captureRecorder) Attach(id string) int32 {
	c.ids = append(c.ids, id)
	return int32(len(c.ids) - 1)
}

func (c *captureRecorder) Record(h int32, t, gbps float64) {
	id := c.ids[h]
	c.points[id] = append(c.points[id], trace.Point{Time: t, Value: gbps})
}

// discardRecorder is a Recorder that keeps nothing: fixtures that time
// the simulation alone record through it.
type discardRecorder struct{}

func (discardRecorder) Attach(string) int32            { return 0 }
func (discardRecorder) Record(int32, float64, float64) {}

// TestRecordModesEngineTransparent pins the RecordMode contract: the
// simulation itself — every session event, in order, with bitwise-equal
// times and samples — is identical in full and aggregate modes,
// because the recording cadence still bounds every macro-step and only
// what gets written differs. It further requires the aggregate stream
// to reproduce the full-mode throughput series bitwise, and the
// aggregate timeline to stay empty. Both Run (queue=true) and the always-tick
// reference loop (queue=false) are exercised, since each has its own
// recording loop.
func TestRecordModesEngineTransparent(t *testing.T) {
	const n, horizon = 45, 120
	type outcome struct {
		tl     *Timeline
		events []session.Event
		rec    *captureRecorder
	}
	run := func(queue bool, mode RecordMode) outcome {
		eng, err := NewEngine(HPCLab(), 11)
		if err != nil {
			t.Fatal(err)
		}
		s := NewScheduler(eng, 1)
		var rec *captureRecorder
		if mode == RecordAggregate {
			rec = newCaptureRecorder()
			s.SetRecording(mode, rec)
		}
		var events []session.Event
		s.SetEventSink(func(e session.Event) { events = append(events, e) })
		fleetScenario(t, s, n)
		tl := runVia(s, horizon, !queue, false)
		return outcome{tl: tl, events: events, rec: rec}
	}

	for _, queue := range []bool{true, false} {
		t.Run(fmt.Sprintf("queue=%v", queue), func(t *testing.T) {
			full := run(queue, RecordFull)
			agg := run(queue, RecordAggregate)

			if len(full.tl.Finished) == 0 {
				t.Fatal("scenario did not exercise completion")
			}
			if len(agg.events) != len(full.events) {
				t.Fatalf("aggregate mode: %d events, full mode %d", len(agg.events), len(full.events))
			}
			for i := range agg.events {
				if !reflect.DeepEqual(agg.events[i], full.events[i]) {
					t.Fatalf("aggregate mode event %d differs:\n  full: %+v\n  aggregate:  %+v",
						i, full.events[i], agg.events[i])
				}
			}
			if got := len(agg.tl.Throughput.Names()); got != 0 {
				t.Fatalf("aggregate mode recorded %d throughput series, want 0", got)
			}
			if got := len(agg.tl.Finished); got != 0 {
				t.Fatalf("aggregate mode recorded %d finish times, want 0", got)
			}

			// The aggregate stream must be the full-mode series, point for
			// point. (Compared element-wise: full mode pre-sizes series at
			// join, so a session that finishes before its first recording
			// boundary has an empty-but-allocated series, while the
			// recorder map simply has no points for it.)
			for _, name := range full.tl.Throughput.Names() {
				s := full.tl.Throughput.Lookup(name)
				got := agg.rec.points[name]
				if len(got) != len(s.Points) {
					t.Fatalf("aggregate stream for %q has %d points, full mode %d", name, len(got), len(s.Points))
				}
				for i := range got {
					if got[i] != s.Points[i] {
						t.Fatalf("aggregate stream for %q point %d = %+v, full mode %+v", name, i, got[i], s.Points[i])
					}
				}
				delete(agg.rec.points, name)
			}
			for name := range agg.rec.points {
				if len(agg.rec.points[name]) > 0 {
					t.Fatalf("aggregate stream has points for %q, absent from full mode", name)
				}
			}
		})
	}
}

// TestSetRecordingRequiresRecorder pins the nil-recorder guard.
func TestSetRecordingRequiresRecorder(t *testing.T) {
	eng, err := NewEngine(HPCLab(), 1)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(eng, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("SetRecording(RecordAggregate, nil) did not panic")
		}
	}()
	s.SetRecording(RecordAggregate, nil)
}

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

// TestRecordModesEngineTransparent pins the RecordMode contract: the
// simulation itself — every session event, in order, with bitwise-equal
// times and samples — is identical in full, aggregate, and off modes,
// because the recording cadence still bounds every macro-step and only
// what gets written differs. It further requires the aggregate stream
// to reproduce the full-mode throughput series bitwise, and non-full
// timelines to stay empty. Both Run (queue=true) and the always-tick
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
		} else {
			s.SetRecording(mode, nil)
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
			off := run(queue, RecordOff)

			if len(full.tl.Finished) == 0 {
				t.Fatal("scenario did not exercise completion")
			}
			for name, o := range map[string]outcome{"aggregate": agg, "off": off} {
				if len(o.events) != len(full.events) {
					t.Fatalf("%s mode: %d events, full mode %d", name, len(o.events), len(full.events))
				}
				for i := range o.events {
					if !reflect.DeepEqual(o.events[i], full.events[i]) {
						t.Fatalf("%s mode event %d differs:\n  full: %+v\n  %s:  %+v",
							name, i, full.events[i], name, o.events[i])
					}
				}
				if got := len(o.tl.Throughput.Names()); got != 0 {
					t.Fatalf("%s mode recorded %d throughput series, want 0", name, got)
				}
				if got := len(o.tl.Finished); got != 0 {
					t.Fatalf("%s mode recorded %d finish times, want 0", name, got)
				}
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

// TestParseRecordMode covers the string round trip.
func TestParseRecordMode(t *testing.T) {
	for _, m := range []RecordMode{RecordFull, RecordAggregate, RecordOff} {
		got, err := ParseRecordMode(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseRecordMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseRecordMode("bogus"); err == nil {
		t.Fatal("ParseRecordMode accepted bogus mode")
	}
}

package main

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/scenario"
	"repro/internal/testbed"
)

func buildToyChurn(t *testing.T) *scenario.Run {
	t.Helper()
	doc, err := scenario.Parse(mustJSON(genFleetChurn(1, toy.churnSessions, toy.fleetDuration)))
	if err != nil {
		t.Fatal(err)
	}
	run, err := doc.Build()
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// The same fleet recorded in full and through the aggregate recorder
// must give the same final-window means, bit for bit, and so the same
// Jain index and utilisation.
func TestRecorderMatchesTimeline(t *testing.T) {
	fullRun := buildToyChurn(t)
	tl, err := fullRun.Execute(scenario.ExecOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t0, t1 := toy.fleetDuration*(1-windowShare), toy.fleetDuration
	fromTimeline := windowMeansOf(&tl.Throughput, fullRun.AgentIDs, t0, t1)

	aggRun := buildToyChurn(t)
	rec := newAggRecorder(aggRun.AgentIDs, t0, t1)
	ss, err := testbed.NewShardSet(aggRun.ShardSpecs(), aggRun.Doc.RecordSeconds)
	if err != nil {
		t.Fatal(err)
	}
	ss.SetRecording(testbed.RecordAggregate, rec)
	ss.SetWorkers(2)
	if _, err := ss.Run(aggRun.Doc.DurationSeconds, aggRun.Doc.TickSeconds); err != nil {
		t.Fatal(err)
	}
	fromRecorder := rec.windowMeans()

	if len(fromTimeline) == 0 || len(fromTimeline) != len(fromRecorder) {
		t.Fatalf("%d sessions live in the window by timeline, %d by recorder", len(fromTimeline), len(fromRecorder))
	}
	for i := range fromTimeline {
		if math.Float64bits(fromTimeline[i]) != math.Float64bits(fromRecorder[i]) {
			t.Fatalf("session %d: window mean %v by timeline, %v by recorder", i, fromTimeline[i], fromRecorder[i])
		}
	}
	j1, u1 := equilibrium(fromTimeline, 4*10e9)
	j2, u2 := equilibrium(fromRecorder, 4*10e9)
	if j1 != j2 || u1 != u2 || !(j1 > 0 && j1 <= 1) || !(u1 > 0 && u1 <= 1) {
		t.Errorf("equilibrium: timeline %v %v, recorder %v %v", j1, u1, j2, u2)
	}
	// A sixth of the roster left before the window opened.
	if want := len(fullRun.AgentIDs) * 5 / 6; len(fromTimeline) != want {
		t.Errorf("%d sessions live in the window, want %d", len(fromTimeline), want)
	}
	if rec.attached() != len(aggRun.AgentIDs) {
		t.Errorf("%d of %d sessions attached", rec.attached(), len(aggRun.AgentIDs))
	}
}

// Shard workers call Attach and Record concurrently, never for the
// same session. Run with -race.
func TestRecorderConcurrentShards(t *testing.T) {
	const shards, perShard, points = 4, 50, 40
	ids := make([]string, shards*perShard)
	for i := range ids {
		ids[i] = fmt.Sprintf("s%03d", i)
	}
	rec := newAggRecorder(ids, 30, 40)
	timed := &timedRecorder{inner: rec, calls: make([]int32, len(ids)), busy: make([]int64, len(ids))}
	var wg sync.WaitGroup
	for k := 0; k < shards; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			handles := make([]int32, perShard)
			for i := range handles {
				handles[i] = timed.Attach(ids[k*perShard+i])
			}
			for p := 0; p < points; p++ {
				for _, h := range handles {
					timed.Record(h, float64(p), float64(h))
				}
			}
		}(k)
	}
	wg.Wait()
	means := rec.windowMeans()
	if len(means) != len(ids) {
		t.Fatalf("%d sessions in the window, want %d", len(means), len(ids))
	}
	for i, m := range means {
		if m != float64(i) || rec.slots[i].n != points || rec.slots[i].winN != 10 || timed.calls[i] != points {
			t.Fatalf("slot %d: mean %v n %d window %d calls %d", i, m, rec.slots[i].n, rec.slots[i].winN, timed.calls[i])
		}
	}
}

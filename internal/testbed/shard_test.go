package testbed

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/session"
	"repro/internal/trace"
	"repro/internal/transfer"
)

// shardFixture builds K shard specs with disjoint rosters: staggered
// joins, mid-run leaves, small tasks that finish inside the horizon,
// and per-shard configs/seeds that differ so cross-shard mixups cannot
// cancel out. Tasks are stateful, so every call builds fresh specs.
func shardFixture(t *testing.T, k int) []ShardSpec {
	t.Helper()
	specs := make([]ShardSpec, k)
	for s := 0; s < k; s++ {
		cfg := HPCLab()
		cfg.LinkCapacity = float64(4+s) * 1e9 // distinct per shard
		spec := ShardSpec{
			Key:    fmt.Sprintf("route%d", s),
			Config: cfg,
			Seed:   100 + int64(s),
			Mutations: []Mutation{
				{At: 30 + float64(s), Kind: MutLinkCapacity, Capacity: float64(3+s) * 1e9},
			},
		}
		for i := 0; i < 8; i++ {
			id := fmt.Sprintf("sh%d-t%d", s, i)
			files, size := 40, int64(2_000_000_000)
			if i%3 == 0 {
				files, size = 2, 50_000_000 // finishes mid-run
			}
			task, err := transfer.NewTask(id, dataset.Uniform(id, files, size),
				transfer.Setting{Concurrency: 1 + i%3, Parallelism: 1, Pipelining: 1})
			if err != nil {
				t.Fatal(err)
			}
			p := Participant{Task: task, JoinAt: float64((i*3 + s) % 11)}
			if i%4 == 1 {
				p.LeaveAt = 45
			}
			spec.Parts = append(spec.Parts, p)
		}
		specs[s] = spec
	}
	return specs
}

// TestShardSetMatchesIndependentRuns: a sharded run is exactly its
// shards run one at a time on plain schedulers — same series, in shard
// order; same finishes; and an event stream that is the per-shard
// streams interleaved by (time, shard index) with per-shard order
// preserved.
func TestShardSetMatchesIndependentRuns(t *testing.T) {
	const until, tick = 90.0, 0.25

	// Independent baseline: one plain scheduler per shard spec.
	type indep struct {
		tl     *Timeline
		events []session.Event
	}
	base := make([]indep, 3)
	for s, spec := range shardFixture(t, 3) {
		eng, err := NewEngine(spec.Config, spec.Seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range spec.Mutations {
			if err := eng.ScheduleMutation(m); err != nil {
				t.Fatal(err)
			}
		}
		sched := NewScheduler(eng, 1)
		sched.SetEventSink(func(e session.Event) { base[s].events = append(base[s].events, e) })
		for _, p := range spec.Parts {
			if err := sched.Add(p); err != nil {
				t.Fatal(err)
			}
		}
		base[s].tl = sched.Run(until, tick)
	}

	ss, err := NewShardSet(shardFixture(t, 3), 1)
	if err != nil {
		t.Fatal(err)
	}
	ss.SetWorkers(4)
	var merged []session.Event
	ss.SetEventSink(func(e session.Event) { merged = append(merged, e) })
	tl, err := ss.Run(until, tick)
	if err != nil {
		t.Fatal(err)
	}

	// Timeline: series concatenate in shard order, finishes union.
	var wantSeries []string
	for _, b := range base {
		for _, s := range b.tl.Throughput.Series {
			wantSeries = append(wantSeries, s.Name)
		}
	}
	var gotSeries []string
	for _, s := range tl.Throughput.Series {
		gotSeries = append(gotSeries, s.Name)
	}
	if !reflect.DeepEqual(gotSeries, wantSeries) {
		t.Errorf("merged series order = %v, want shard-order concat %v", gotSeries, wantSeries)
	}
	wantFinished := map[string]float64{}
	for s, b := range base {
		if len(b.tl.Finished) == 0 {
			t.Fatalf("shard %d fixture never finished a task", s)
		}
		for id, at := range b.tl.Finished {
			wantFinished[id] = at
		}
		for _, ser := range b.tl.Throughput.Series {
			got := tl.Throughput.Get(ser.Name)
			if !reflect.DeepEqual(got.Points, ser.Points) {
				t.Errorf("merged series %q differs from its independent run", ser.Name)
			}
		}
	}
	if !reflect.DeepEqual(tl.Finished, wantFinished) {
		t.Errorf("merged Finished = %v, want %v", tl.Finished, wantFinished)
	}

	// Events: per-shard subsequences survive intact, and the merged
	// stream is time-nondecreasing with ties in shard order.
	owner := map[string]int{}
	for s, spec := range shardFixture(t, 3) {
		for _, p := range spec.Parts {
			owner[p.Task.ID()] = s
		}
	}
	perShard := make([][]session.Event, 3)
	for _, e := range merged {
		s := owner[e.Session]
		perShard[s] = append(perShard[s], e)
	}
	for s, b := range base {
		if !reflect.DeepEqual(perShard[s], b.events) {
			t.Errorf("shard %d event subsequence differs from its independent run", s)
		}
	}
	for i := 1; i < len(merged); i++ {
		p, q := merged[i-1], merged[i]
		if q.Time < p.Time {
			t.Fatalf("merged events out of order: %v after %v", q.Time, p.Time)
		}
		if q.Time == p.Time && owner[q.Session] < owner[p.Session] {
			t.Fatalf("t=%v: shard %d event after shard %d event", q.Time, owner[q.Session], owner[p.Session])
		}
	}
}

// TestShardSetWorkerWidthInvariant: worker width is a throughput knob
// only — 1, 2, and 8 workers must produce identical timelines and
// event streams.
func TestShardSetWorkerWidthInvariant(t *testing.T) {
	type outcome struct {
		tl     *Timeline
		events []session.Event
	}
	run := func(workers int) outcome {
		ss, err := NewShardSet(shardFixture(t, 4), 1)
		if err != nil {
			t.Fatal(err)
		}
		ss.SetWorkers(workers)
		var events []session.Event
		ss.SetEventSink(func(e session.Event) { events = append(events, e) })
		tl, err := ss.Run(60, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		return outcome{tl: tl, events: events}
	}
	ref := run(1)
	for _, w := range []int{2, 8} {
		got := run(w)
		if !reflect.DeepEqual(got.tl, ref.tl) {
			t.Errorf("workers=%d timeline differs from serial", w)
		}
		if !reflect.DeepEqual(got.events, ref.events) {
			t.Errorf("workers=%d event stream differs from serial", w)
		}
	}
}

// TestShardSetSingleShardMatchesScheduler: a one-shard set is the
// plain scheduler run, byte for byte (live sinks, same timeline).
func TestShardSetSingleShardMatchesScheduler(t *testing.T) {
	spec := shardFixture(t, 1)[0]
	eng, err := NewEngine(spec.Config, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.Mutations {
		if err := eng.ScheduleMutation(m); err != nil {
			t.Fatal(err)
		}
	}
	sched := NewScheduler(eng, 1)
	var want []session.Event
	sched.SetEventSink(func(e session.Event) { want = append(want, e) })
	for _, p := range spec.Parts {
		if err := sched.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	wantTL := sched.Run(90, 0.25)

	ss, err := NewShardSet(shardFixture(t, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	var got []session.Event
	ss.SetEventSink(func(e session.Event) { got = append(got, e) })
	gotTL, err := ss.Run(90, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotTL, wantTL) {
		t.Error("single-shard timeline differs from plain scheduler")
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("single-shard event stream differs from plain scheduler")
	}
}

// TestNewShardSetRejects pins the construction errors: empty sets, nil
// tasks, and task IDs duplicated across shards.
func TestNewShardSetRejects(t *testing.T) {
	if _, err := NewShardSet(nil, 1); err == nil {
		t.Error("empty shard set accepted")
	}
	if _, err := NewShardSet([]ShardSpec{{Key: "a", Parts: []Participant{{}}}}, 1); err == nil {
		t.Error("nil task accepted")
	}
	mk := func(id string) Participant {
		task, err := transfer.NewTask(id, dataset.Uniform(id, 2, 1000),
			transfer.Setting{Concurrency: 1, Parallelism: 1, Pipelining: 1})
		if err != nil {
			t.Fatal(err)
		}
		return Participant{Task: task}
	}
	specs := []ShardSpec{
		{Key: "a", Config: HPCLab(), Parts: []Participant{mk("dup")}},
		{Key: "b", Config: HPCLab(), Parts: []Participant{mk("dup")}},
	}
	if _, err := NewShardSet(specs, 1); err == nil {
		t.Error("cross-shard duplicate task ID accepted")
	}
}

// TestMergedTimelineResolvesByIndex: merging four shards' timelines of
// 300 sessions each yields sets equal — name index included — to ones
// recorded directly in the merged order, so a report's by-name lookups
// on a sharded run go through the index instead of scanning 1 200
// series per call.
func TestMergedTimelineResolvesByIndex(t *testing.T) {
	const shards, perShard = 4, 300
	tls := make([]*Timeline, shards)
	want := &Timeline{Finished: map[string]float64{}}
	for k := range tls {
		tls[k] = &Timeline{Finished: map[string]float64{}}
		for i := 0; i < perShard; i++ {
			id := fmt.Sprintf("k%d-s%04d", k, i)
			for _, tl := range []*Timeline{tls[k], want} {
				tl.Throughput.Append(id+"/throughput", float64(i), float64(k))
				tl.Concurrency.Append(id+"/concurrency", float64(i), 2)
				tl.Loss.Append(id+"/loss", float64(i), 0)
			}
		}
	}
	got := mergeTimelines(tls)
	for _, set := range []struct {
		name      string
		got, want *trace.TimeSet
	}{
		{"throughput", &got.Throughput, &want.Throughput},
		{"concurrency", &got.Concurrency, &want.Concurrency},
		{"loss", &got.Loss, &want.Loss},
	} {
		if len(set.got.Series) != shards*perShard {
			t.Fatalf("%s: merged %d series, want %d", set.name, len(set.got.Series), shards*perShard)
		}
		if !reflect.DeepEqual(set.got, set.want) {
			t.Fatalf("%s: merged set differs from one recorded directly (series or name index)", set.name)
		}
		for _, s := range set.got.Series {
			if set.got.Lookup(s.Name) != s {
				t.Fatalf("%s: %s resolves to another series", set.name, s.Name)
			}
		}
	}
}

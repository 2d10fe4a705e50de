package ftp

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/session"
	"repro/internal/testbed"
	"repro/internal/transfer"
)

// startServer launches a server on an ephemeral loopback port.
func startServer(t *testing.T, sink Sink, cmdDelay time.Duration) *Server {
	t.Helper()
	srv := &Server{Sink: sink, CommandDelay: cmdDelay}
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func files(n int, size int64) []dataset.File {
	fs := make([]dataset.File, n)
	for i := range fs {
		fs[i] = dataset.File{Name: fmt.Sprintf("f%d", i), Size: size}
	}
	return fs
}

func TestServerNeedsSink(t *testing.T) {
	srv := &Server{}
	if err := srv.Serve("127.0.0.1:0"); err == nil {
		t.Fatal("server without sink accepted")
	}
}

func TestClientStartValidation(t *testing.T) {
	sink := &DiscardSink{}
	srv := startServer(t, sink, 0)
	good := transfer.Setting{Concurrency: 1, Parallelism: 1, Pipelining: 1}
	cases := []struct {
		name string
		c    *Client
		s    transfer.Setting
	}{
		{"invalid setting", &Client{Addr: srv.Addr(), Source: PatternSource{}, Files: files(1, 10)}, transfer.Setting{}},
		{"nil source", &Client{Addr: srv.Addr(), Files: files(1, 10)}, good},
		{"no files", &Client{Addr: srv.Addr(), Source: PatternSource{}}, good},
		{"zero-size file", &Client{Addr: srv.Addr(), Source: PatternSource{}, Files: []dataset.File{{Name: "x", Size: 0}}}, good},
		{"concurrency over pool", &Client{Addr: srv.Addr(), Source: PatternSource{}, Files: files(1, 10), MaxWorkers: 2}, transfer.Setting{Concurrency: 4, Parallelism: 1, Pipelining: 1}},
	}
	for _, c := range cases {
		if err := c.c.Start(c.s); err == nil {
			t.Errorf("%s: Start did not error", c.name)
			c.c.Close()
		}
	}
}

func TestTransferDeliversAllBytes(t *testing.T) {
	sink := &DiscardSink{}
	srv := startServer(t, sink, 0)
	c := &Client{Addr: srv.Addr(), Source: PatternSource{}, Files: files(20, 64*1024)}
	if err := c.Start(transfer.Setting{Concurrency: 4, Parallelism: 2, Pipelining: 4}); err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	want := int64(20 * 64 * 1024)
	if got := c.BytesSent(); got != want {
		t.Fatalf("BytesSent = %d, want %d", got, want)
	}
	if got := sink.Bytes(); got != want {
		t.Fatalf("sink received %d, want %d", got, want)
	}
	if !c.Done() {
		t.Fatal("Done() false after Wait")
	}
}

func TestTransferToDirSinkRoundTrips(t *testing.T) {
	dir := t.TempDir()
	sink := &DirSink{Dir: dir}
	defer sink.Close()
	srv := startServer(t, sink, 0)

	// Build a source file with known content.
	srcPath := filepath.Join(dir, "src.bin")
	content := make([]byte, 100_000)
	for i := range content {
		content[i] = byte(i * 31)
	}
	if err := os.WriteFile(srcPath, content, 0o644); err != nil {
		t.Fatal(err)
	}
	src := &DirSource{}
	src.Register(0, srcPath)

	c := &Client{Addr: srv.Addr(), Source: src, Files: []dataset.File{{Name: "src.bin", Size: int64(len(content))}}}
	if err := c.Start(transfer.Setting{Concurrency: 1, Parallelism: 3, Pipelining: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	sink.Close()
	got, err := os.ReadFile(filepath.Join(dir, "recv-0"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(content) {
		t.Fatalf("received %d bytes, want %d", len(got), len(content))
	}
	for i := range got {
		if got[i] != content[i] {
			t.Fatalf("byte %d differs: %d vs %d (striped reassembly broken)", i, got[i], content[i])
		}
	}
}

func TestApplyChangesConcurrencyMidFlight(t *testing.T) {
	sink := &DiscardSink{}
	srv := startServer(t, sink, 0)
	c := &Client{
		Addr: srv.Addr(), Source: PatternSource{},
		Files:       files(200, 256*1024),
		PerProcRate: 50e6, // 50 Mbps per file keeps the transfer alive
	}
	if err := c.Start(transfer.Setting{Concurrency: 1, Parallelism: 1, Pipelining: 8}); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s1, err := c.Measure(300 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Apply(transfer.Setting{Concurrency: 8, Parallelism: 1, Pipelining: 8}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond) // let new workers spin up
	s2, err := c.Measure(300 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Throughput < 3*s1.Throughput {
		t.Fatalf("concurrency 8 gave %v bps vs %v at 1; want ≥3×", s2.Throughput, s1.Throughput)
	}
	if s2.Setting.Concurrency != 8 {
		t.Fatalf("sample setting = %+v", s2.Setting)
	}
}

func TestPipeliningHidesCommandLatency(t *testing.T) {
	// With a 20 ms command delay and 2 KiB files, q=1 serialises
	// announcements against completions; q=16 overlaps them.
	run := func(q int) time.Duration {
		sink := &DiscardSink{}
		srv := startServer(t, sink, 20*time.Millisecond)
		c := &Client{Addr: srv.Addr(), Source: PatternSource{}, Files: files(30, 2048)}
		start := time.Now()
		if err := c.Start(transfer.Setting{Concurrency: 4, Parallelism: 1, Pipelining: q}); err != nil {
			t.Fatal(err)
		}
		if err := c.Wait(); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	slow := run(1)
	fast := run(16)
	if fast >= slow {
		t.Fatalf("pipelining did not help: q=1 %v vs q=16 %v", slow, fast)
	}
	if slow < 2*fast {
		t.Fatalf("expected ≥2× speedup from pipelining: q=1 %v vs q=16 %v", slow, fast)
	}
}

func TestPerProcRateThrottles(t *testing.T) {
	sink := &DiscardSink{}
	srv := startServer(t, sink, 0)
	c := &Client{
		Addr: srv.Addr(), Source: PatternSource{},
		Files:       files(1, 2*1024*1024),
		PerProcRate: 8e6, // 1 MiB/s → ≈2 s for 2 MiB
	}
	start := time.Now()
	if err := c.Start(transfer.Setting{Concurrency: 1, Parallelism: 1, Pipelining: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if e := time.Since(start); e < 1500*time.Millisecond {
		t.Fatalf("throttled transfer finished in %v, want ≈2s", e)
	}
}

func TestMeasureBeforeStart(t *testing.T) {
	c := &Client{}
	if _, err := c.Measure(time.Millisecond); err == nil {
		t.Fatal("Measure before Start did not error")
	}
	if c.Done() {
		t.Fatal("Done before Start")
	}
	if err := c.Wait(); err == nil {
		t.Fatal("Wait before Start did not error")
	}
}

func TestDoubleStartRejected(t *testing.T) {
	sink := &DiscardSink{}
	srv := startServer(t, sink, 0)
	c := &Client{Addr: srv.Addr(), Source: PatternSource{}, Files: files(50, 1024*1024), PerProcRate: 20e6}
	set := transfer.Setting{Concurrency: 1, Parallelism: 1, Pipelining: 1}
	if err := c.Start(set); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Start(set); err == nil {
		t.Fatal("second Start accepted")
	}
}

func TestCloseAbortsTransfer(t *testing.T) {
	sink := &DiscardSink{}
	srv := startServer(t, sink, 0)
	c := &Client{Addr: srv.Addr(), Source: PatternSource{}, Files: files(100, 1024*1024), PerProcRate: 10e6}
	if err := c.Start(transfer.Setting{Concurrency: 2, Parallelism: 1, Pipelining: 2}); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		c.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return within 5s")
	}
	if c.Err() == nil {
		t.Fatal("aborted client has no error")
	}
}

func TestFalconRunnerTunesRealTransfer(t *testing.T) {
	// End-to-end: a Falcon GD agent tunes a real loopback transfer whose
	// per-file rate is throttled to 40 Mbps. Starting at concurrency 1,
	// the agent must raise concurrency and multiply throughput.
	if testing.Short() {
		t.Skip("timing-sensitive loopback test")
	}
	sink := &DiscardSink{}
	srv := startServer(t, sink, 0)
	c := &Client{
		Addr: srv.Addr(), Source: PatternSource{},
		Files:       files(4000, 512*1024),
		PerProcRate: 40e6,
		MaxWorkers:  32,
	}
	if err := c.Start(transfer.Setting{Concurrency: 1, Parallelism: 1, Pipelining: 16}); err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	agent := core.NewGDAgent(16)
	if err := agent.SetFixedKnobs(1, 16); err != nil {
		t.Fatal(err)
	}
	// 20 s is a ceiling: the run ends as soon as the samples already
	// satisfy the assertions below.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	var mu sync.Mutex
	var lastTputs []float64
	peak := 0.0
	err := session.Run(ctx, c, agent, session.Config{
		Interval: 0.4,
		OnSample: func(s transfer.Sample, next transfer.Setting) {
			mu.Lock()
			lastTputs = append(lastTputs, s.Throughput)
			peak = max(peak, s.Throughput)
			if len(lastTputs) >= 6 && peak >= 3*lastTputs[0] {
				cancel()
			}
			mu.Unlock()
		},
	})
	if err != nil && ctx.Err() == nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(lastTputs) < 6 {
		t.Fatalf("too few samples: %d", len(lastTputs))
	}
	first := lastTputs[0]
	best := 0.0
	for _, v := range lastTputs {
		if v > best {
			best = v
		}
	}
	if best < 3*first {
		t.Fatalf("Falcon did not improve real transfer: first %v, best %v", first, best)
	}
}

func TestResizableSemaphore(t *testing.T) {
	sem := newResizableSemaphore(2)
	stop := make(chan struct{})
	if !sem.Acquire(stop) || !sem.Acquire(stop) {
		t.Fatal("could not acquire up to capacity")
	}
	acquired := make(chan struct{})
	go func() {
		if sem.Acquire(stop) {
			close(acquired)
		}
	}()
	select {
	case <-acquired:
		t.Fatal("third acquire should block at capacity 2")
	case <-time.After(50 * time.Millisecond):
	}
	sem.Resize(3)
	select {
	case <-acquired:
	case <-time.After(time.Second):
		t.Fatal("Resize did not wake the waiter")
	}
	if sem.Capacity() != 3 {
		t.Fatalf("Capacity = %d", sem.Capacity())
	}
	sem.Release()
	// Stop unblocks pending acquires.
	blocked := make(chan bool)
	sem.Resize(0)
	go func() { blocked <- sem.Acquire(stop) }()
	close(stop)
	select {
	case got := <-blocked:
		if got {
			t.Fatal("Acquire returned true after stop")
		}
	case <-time.After(time.Second):
		t.Fatal("Acquire did not observe stop")
	}
}

func TestPatternSourceDeterministic(t *testing.T) {
	a := make([]byte, 100)
	b := make([]byte, 100)
	if err := (PatternSource{}).ReadAt(3, 50, a); err != nil {
		t.Fatal(err)
	}
	if err := (PatternSource{}).ReadAt(3, 50, b); err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("PatternSource not deterministic")
		}
	}
	// Offset consistency: reading [50,150) must agree with [0,200).
	full := make([]byte, 200)
	if err := (PatternSource{}).ReadAt(3, 0, full); err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != full[50+i] {
			t.Fatal("PatternSource offset inconsistency")
		}
	}
}

func TestDirSourceUnregistered(t *testing.T) {
	s := &DirSource{}
	if err := s.ReadAt(0, 0, make([]byte, 1)); err == nil {
		t.Fatal("unregistered file read did not error")
	}
}

// steadyDecider keeps the observed setting — a fixed strategy that
// still exercises the full decide/apply flow each epoch.
type steadyDecider struct{}

func (steadyDecider) Decide(s transfer.Sample) transfer.Setting { return s.Setting }

// TestSimAndRealShareSessionLoop proves the simulator and the real FTP
// stack are driven by the same session loop: a one-participant
// testbed.Scheduler run and session.Run over a loopback ftp.Client emit
// the same canonical event stream — Join, then one (Sample, Decision,
// Apply) triple per epoch, then Finish — differing only in epoch count.
func TestSimAndRealShareSessionLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive loopback test")
	}
	var mu sync.Mutex
	kindsOf := map[string][]session.Kind{}
	record := func(e session.Event) {
		mu.Lock()
		kindsOf[e.Session] = append(kindsOf[e.Session], e.Kind)
		mu.Unlock()
	}
	// epochs validates the canonical grammar and returns the epoch count.
	epochs := func(id string, ks []session.Kind) int {
		t.Helper()
		if len(ks) < 2 || ks[0] != session.Join || ks[len(ks)-1] != session.Finish {
			t.Fatalf("%s: stream %v lacks Join…Finish framing", id, ks)
		}
		mid := ks[1 : len(ks)-1]
		if len(mid)%3 != 0 {
			t.Fatalf("%s: %d mid-stream events not in epoch triples: %v", id, len(mid), ks)
		}
		for i := 0; i < len(mid); i += 3 {
			if mid[i] != session.Sample || mid[i+1] != session.Decision || mid[i+2] != session.Apply {
				t.Fatalf("%s: epoch %d is %v, want [sample decision apply]", id, i/3, mid[i:i+3])
			}
		}
		return len(mid) / 3
	}

	// Simulated path: a draining task on the engine's virtual clock,
	// run the way every simulated session runs.
	eng, err := testbed.NewEngine(testbed.Emulab(10e6), 1)
	if err != nil {
		t.Fatal(err)
	}
	set := transfer.Setting{Concurrency: 4, Parallelism: 1, Pipelining: 1}
	task, err := transfer.NewTask("sim", dataset.Uniform("sim", 4, 5_000_000), set)
	if err != nil {
		t.Fatal(err)
	}
	sched := testbed.NewScheduler(eng, 1)
	sched.SetEventSink(record)
	if err := sched.Add(testbed.Participant{Task: task, Controller: steadyDecider{}, SampleInterval: 1}); err != nil {
		t.Fatal(err)
	}
	sched.Run(60, 0.25)

	// Real path: a throttled loopback FTP transfer on the wall clock.
	srv := startServer(t, &DiscardSink{}, 0)
	c := &Client{
		Addr: srv.Addr(), Source: PatternSource{},
		Files:       files(32, 256*1024),
		PerProcRate: 40e6,
	}
	if err := c.Start(set); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := session.Run(ctx, c, steadyDecider{}, session.Config{ID: "real", Interval: 0.2, Events: record}); err != nil && ctx.Err() == nil {
		t.Fatalf("real: %v", err)
	}

	simKinds, realKinds := kindsOf["sim"], kindsOf["real"]
	nSim, nReal := epochs("sim", simKinds), epochs("real", realKinds)
	if nSim < 2 || nReal < 2 {
		t.Fatalf("too few epochs to compare: sim=%d real=%d", nSim, nReal)
	}
	// Identical per-event sequence up to the shorter run's length.
	n := 1 + 3*min(nSim, nReal)
	for i := 0; i < n; i++ {
		if simKinds[i] != realKinds[i] {
			t.Fatalf("event %d differs: sim %v, real %v", i, simKinds[i], realKinds[i])
		}
	}
}

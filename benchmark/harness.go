package main

import (
	"fmt"
	"runtime"
	"time"
)

// outcome is what one pass of a section produced.
type outcome struct {
	// wall is the timed part of the pass only: checking, hashing and
	// tearing down happen outside it.
	wall float64
	// e2e holds this pass's sample of every end-to-end metric the
	// section owns; layer holds per-layer samples from a traced pass.
	e2e   map[string]float64
	layer map[string]float64
	// sha is the SHA-256 of the pass's rendered results.
	sha string
	// attempted and failed count the section's operations
	// (experiments, sessions, requests); problems names what failed.
	attempted, failed int
	problems          []string
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < maxProblems {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// maxProblems caps the failure messages kept per pass; the count is
// never capped.
const maxProblems = 8

// passFunc runs one prepared pass. tc is nil on an untraced pass.
type passFunc func(tc *traceCtx) (*outcome, error)

// section is one surface of the program at one size. prepare does
// everything a pass needs before its clock starts — generate the inputs
// from the seed, parse and build them, start listeners — and returns
// the pass and its teardown. Engines and services are single-use, so
// every pass is prepared afresh and every prepare is one sample of
// set-up time.
type section struct {
	name    string
	prepare func() (pass passFunc, cleanup func(), err error)
}

// traceCtx carries the tracer into a traced pass.
type traceCtx struct {
	tr     *tracer
	parent int
	pass   int
	// timer is what timing nothing reads (timerCost), subtracted per
	// call from busy times summed over very many very short calls.
	timer time.Duration
}

// begin opens a span under the traced pass (a no-op untraced).
func (tc *traceCtx) begin(name string) int {
	if tc == nil {
		return -1
	}
	return tc.tr.begin(name, tc.parent, tc.pass)
}

func (tc *traceCtx) end(id int) {
	if tc != nil {
		tc.tr.end(id)
	}
}

// passRecord is one measured pass: its outcome and what it cost the
// host.
type passRecord struct {
	out  *outcome
	host hostDelta
}

// sectionRun is everything measured for one section in one process.
type sectionRun struct {
	name   string
	setups []float64
	warmup *passRecord
	passes []passRecord
}

// onePass prepares and runs a single pass, timing the set-up, forcing
// a collection so the pass starts from a clean heap, and charging the
// pass to the host clocks.
func onePass(sec section, tc *traceCtx) (setup float64, rec passRecord, err error) {
	t0 := time.Now()
	pass, cleanup, err := sec.prepare()
	setup = time.Since(t0).Seconds()
	if err != nil {
		return setup, rec, fmt.Errorf("%s: prepare: %w", sec.name, err)
	}
	defer cleanup()
	runtime.GC()
	before := sampleHost()
	out, err := pass(tc)
	rec.host = before.until(sampleHost())
	if err != nil {
		return setup, rec, fmt.Errorf("%s: %w", sec.name, err)
	}
	rec.out = out
	return setup, rec, nil
}

// measure runs one untimed warm-up pass and then timed passes until
// budget is spent, at least least and at most most of them.
func measure(sec section, budget time.Duration, least, most int) (*sectionRun, error) {
	run := &sectionRun{name: sec.name}
	setup, rec, err := onePass(sec, nil)
	if err != nil {
		return nil, err
	}
	run.setups = append(run.setups, setup)
	run.warmup = &rec
	deadline := time.Now().Add(budget)
	for len(run.passes) < most && (len(run.passes) < least || time.Now().Before(deadline)) {
		setup, rec, err := onePass(sec, nil)
		if err != nil {
			return nil, err
		}
		run.setups = append(run.setups, setup)
		run.passes = append(run.passes, rec)
	}
	return run, nil
}

// walls returns the timed passes' wall seconds.
func (r *sectionRun) walls() []float64 {
	out := make([]float64, len(r.passes))
	for i, p := range r.passes {
		out[i] = p.out.wall
	}
	return out
}

// samples returns the timed passes' samples of one end-to-end metric.
func (r *sectionRun) samples(metric string) []float64 {
	var out []float64
	for _, p := range r.passes {
		if v, ok := p.out.e2e[metric]; ok {
			out = append(out, v)
		}
	}
	return out
}

// everyPass returns the warm-up and timed outcomes in run order.
func (r *sectionRun) everyPass() []*outcome {
	out := []*outcome{r.warmup.out}
	for _, p := range r.passes {
		out = append(out, p.out)
	}
	return out
}

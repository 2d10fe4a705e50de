package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"repro/internal/experiments"
)

// suiteSection is the paper suite: every registered figure, table and
// ablation, serially, for seeds base … base+seeds−1. It is what a
// `reproduce` user waits for.
func suiteSection(base int64, seeds int) section {
	return section{name: "suite", prepare: func() (passFunc, func(), error) {
		runners := experiments.All()
		return func(tc *traceCtx) (*outcome, error) { return suitePass(runners, base, seeds, tc) }, func() {}, nil
	}}
}

func suitePass(runners []experiments.Runner, base int64, seeds int, tc *traceCtx) (*outcome, error) {
	out := &outcome{e2e: map[string]float64{}}
	outs := make([][]experiments.Outcome, seeds)
	start := time.Now()
	if tc == nil {
		for s := range outs {
			outs[s] = experiments.Run(runners, base+int64(s), 1)
		}
	} else {
		// The traced pass calls each runner itself, exactly as
		// experiments.Run does with one worker, to time them one by one.
		out.layer = map[string]float64{}
		root := tc.tr.begin("experiments.run", tc.parent, tc.pass)
		for s := range outs {
			outs[s] = make([]experiments.Outcome, len(runners))
			for i, r := range runners {
				t0 := time.Now()
				res, err := r.Run(base + int64(s))
				t1 := time.Now()
				tc.tr.add("experiments."+r.ID, t0, t1, root, tc.pass)
				out.layer["experiments."+r.ID+".wall_ms"] += t1.Sub(t0).Seconds() * 1e3 / float64(seeds)
				outs[s][i] = experiments.Outcome{Runner: r, Result: res, Err: err}
			}
		}
		tc.tr.end(root)
	}
	out.wall = time.Since(start).Seconds()

	h := sha256.New()
	for s, perSeed := range outs {
		for _, o := range perSeed {
			out.attempted++
			if o.Err != nil {
				out.fail("experiment %s seed %d: %v", o.Runner.ID, base+int64(s), o.Err)
				continue
			}
			if err := o.Result.Render(h); err != nil {
				return nil, fmt.Errorf("render %s: %w", o.Runner.ID, err)
			}
		}
	}
	out.sha = hex.EncodeToString(h.Sum(nil))
	return out, nil
}

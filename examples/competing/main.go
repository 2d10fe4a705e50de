// Competing transfers: Falcon's fairness guarantee in action.
//
// Three Falcon-GD agents share the Emulab environment where 48
// concurrent transfers saturate the 1 Gbps link (the paper's Figure 13
// scenario). Agents join at t=0, 250 s, and 500 s; the third leaves at
// 750 s. Because every agent maximises the same strictly concave
// utility, incumbents *reduce* their concurrency when competitors
// arrive — fair sharing with minimal system overhead, not a concurrency
// arms race. Run with:
//
//	go run ./examples/competing
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/stats"
	"repro/internal/testbed"
	"repro/internal/transfer"
)

func agentTask(id string) *transfer.Task {
	t, err := transfer.NewTask(id, dataset.Uniform(id, 20000, int64(dataset.GB)),
		transfer.Setting{Concurrency: 2, Parallelism: 1, Pipelining: 1})
	if err != nil {
		log.Fatal(err)
	}
	return t
}

func main() {
	cfg := testbed.EmulabGigabit(20.83e6) // optimum ≈48 concurrent transfers
	eng, err := testbed.NewEngine(cfg, 7)
	if err != nil {
		log.Fatal(err)
	}
	sched := testbed.NewScheduler(eng, 1)
	sched.SetLogf(func(f string, a ...any) { fmt.Printf(f+"\n", a...) })

	parts := []testbed.Participant{
		{Task: agentTask("alice"), Controller: core.NewGDAgent(100)},
		{Task: agentTask("bob"), Controller: core.NewGDAgent(100), JoinAt: 250},
		{Task: agentTask("carol"), Controller: core.NewGDAgent(100), JoinAt: 500, LeaveAt: 750},
	}
	for _, p := range parts {
		if err := sched.Add(p); err != nil {
			log.Fatal(err)
		}
	}
	tl := sched.Run(1000, 0.25)

	report := func(label string, t0, t1 float64, ids ...string) {
		var shares []float64
		fmt.Printf("\n%s (t=[%.0f,%.0f)):\n", label, t0, t1)
		for _, id := range ids {
			tput := tl.MeanThroughputGbps(id, t0, t1)
			cc := tl.Concurrency.Lookup(id).MeanBetween(t0, t1)
			shares = append(shares, tput)
			fmt.Printf("  %-6s %6.1f Mbps at concurrency %4.0f\n", id, tput*1000, cc)
		}
		if len(shares) > 1 {
			fmt.Printf("  Jain fairness index: %.3f\n", stats.JainIndex(shares))
		}
	}
	report("alice alone", 150, 250, "alice")
	report("alice + bob", 400, 500, "alice", "bob")
	report("all three", 650, 750, "alice", "bob", "carol")
	report("carol left", 900, 1000, "alice", "bob")

	// The chart's rows are padded to its width; trimming the padding
	// lets the Example test pin them.
	fmt.Println("\nconcurrency timeline:")
	chart := strings.TrimRight(tl.Concurrency.ASCIIChart(72, 12), "\n")
	for _, row := range strings.Split(chart, "\n") {
		fmt.Println(strings.TrimRight(row, " "))
	}
}

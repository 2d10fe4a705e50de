// Quickstart: tune one simulated file transfer with Falcon.
//
// A Falcon agent (Online Gradient Descent + the Eq 4 utility) optimizes
// the concurrency of a 1 TB transfer on the Emulab testbed, where ten
// concurrent transfers are needed to fill the 100 Mbps bottleneck link.
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/session"
	"repro/internal/testbed"
	"repro/internal/transfer"
	"repro/internal/utility"
)

func main() {
	// 1. Pick an environment. Emulab: 100 Mbps link, 30 ms RTT, and a
	//    10 Mbps per-process I/O throttle, so the optimal concurrency
	//    is 10.
	cfg := testbed.Emulab(10e6)
	eng, err := testbed.NewEngine(cfg, 42)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Describe the transfer: the paper's 1000 × 1 GB dataset,
	//    starting from a conservative concurrency of 2.
	task, err := transfer.NewTask("demo", dataset.Main(),
		transfer.Setting{Concurrency: 2, Parallelism: 1, Pipelining: 1})
	if err != nil {
		log.Fatal(err)
	}

	// 3. Create the Falcon agent and let the scheduler drive it: every
	//    3 s sample transfer produces a (throughput, loss) observation,
	//    the utility function scores it, and Gradient Descent proposes
	//    the next concurrency.
	//    Each decision reaches the session's event stream as a Decision
	//    event: the sample it scored and the setting it chose.
	sched := testbed.NewScheduler(eng, 1)
	if err := sched.Add(testbed.Participant{Task: task, Controller: core.NewGDAgent(32)}); err != nil {
		log.Fatal(err)
	}
	var decisions []session.Event
	sched.SetEventSink(func(e session.Event) {
		if e.Kind == session.Decision {
			decisions = append(decisions, e)
		}
	})
	timeline := sched.Run(180, 0.25)

	// 4. Inspect the outcome, scoring each sample as the agent did.
	fmt.Println("epoch-by-epoch decisions (first 12):")
	params := utility.DefaultParams()
	for i, d := range decisions[:min(12, len(decisions))] {
		s := d.Sample
		u := params.Evaluate(s.Setting.Concurrency, s.Setting.Parallelism, s.Throughput, s.Loss)
		fmt.Printf("  sample %2d: cc=%-3d → %6.1f Mbps, loss %.2f%%, utility %8.0f → next cc=%d\n",
			i+1, s.Setting.Concurrency, s.Throughput/1e6, s.Loss*100, u/1e6, d.Setting.Concurrency)
	}
	fmt.Printf("\nconverged throughput: %.1f Mbps (link capacity 100 Mbps)\n",
		timeline.MeanThroughputGbps("demo", 90, 180)*1000)
	fmt.Printf("converged concurrency: %.1f (optimal: 10)\n",
		timeline.Concurrency.Lookup("demo").MeanAfter(90))
}

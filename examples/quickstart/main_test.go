package main

// Example runs the quickstart and pins what it prints: the agent's
// first twelve decisions, then its converged throughput and
// concurrency. The engine is seeded and the agent deterministic, so
// any change to the simulator, the utility or the search that moves
// these numbers fails here.
func Example() {
	main()
	// Output:
	// epoch-by-epoch decisions (first 12):
	//   sample  1: cc=2   →   14.6 Mbps, loss 0.01%, utility       14 → next cc=1
	//   sample  2: cc=1   →   10.1 Mbps, loss 0.01%, utility       10 → next cc=3
	//   sample  3: cc=3   →   27.1 Mbps, loss 0.01%, utility       25 → next cc=8
	//   sample  4: cc=8   →   73.8 Mbps, loss 0.01%, utility       63 → next cc=6
	//   sample  5: cc=6   →   60.2 Mbps, loss 0.01%, utility       53 → next cc=14
	//   sample  6: cc=14  →   95.5 Mbps, loss 1.89%, utility       54 → next cc=16
	//   sample  7: cc=16  →   99.1 Mbps, loss 2.47%, utility       48 → next cc=24
	//   sample  8: cc=24  →  100.6 Mbps, loss 5.54%, utility        7 → next cc=22
	//   sample  9: cc=22  →  101.6 Mbps, loss 4.66%, utility       18 → next cc=18
	//   sample 10: cc=18  →   99.2 Mbps, loss 3.12%, utility       38 → next cc=20
	//   sample 11: cc=20  →   98.7 Mbps, loss 3.85%, utility       28 → next cc=12
	//   sample 12: cc=12  →  100.9 Mbps, loss 1.39%, utility       65 → next cc=10
	//
	// converged throughput: 91.9 Mbps (link capacity 100 Mbps)
	// converged concurrency: 10.2 (optimal: 10)
}

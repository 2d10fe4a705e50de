package main

// Example runs concurrency-only Falcon and Falcon_MP on the mixed
// dataset and pins what they print. The engines are seeded, so a
// change that moves either throughput or the gain fails here.
func Example() {
	main()
	// Output:
	// dataset "mixed": 50700 files, 1.10 TiB, median file 0.2 MiB
	//
	// falcon     mean concurrency 30.3 → 30.90 Gbps
	// falcon-mp  mean concurrency 27.9 → 34.13 Gbps
	//
	// multi-parameter gain: +10% (paper: up to +30% for small/mixed datasets)
}

// Package repro is a from-scratch Go reproduction of "Online
// Optimization of File Transfers in High-Speed Networks" (Falcon),
// Arifuzzaman & Arslan, SC '21.
//
// The implementation lives under internal/: the Falcon agent in
// internal/core, its utility functions in internal/utility, the search
// algorithms in internal/optimizer and internal/bayesopt, the simulated
// testbeds in internal/testbed (over internal/netsim, internal/iosim,
// internal/hostsim), the Globus/HARP comparators in internal/baselines,
// a real TCP transfer substrate in internal/ftp, and one runner per
// paper figure/table in internal/experiments.
//
// cmd/reproduce regenerates every table and figure of the paper's
// evaluation as text, CSV and SVG reports, and the benchmark module in
// benchmark/ times them. See README.md, DESIGN.md, and EXPERIMENTS.md.
package repro

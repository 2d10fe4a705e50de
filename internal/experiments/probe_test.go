package experiments

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/testbed"
	"repro/internal/transfer"
)

// The paper's §4 profiled each testbed with Iperf and bonnie++ before
// running experiments, and read Table 1's bottleneck column off the
// numbers. probeTestbed does the same against a simulated testbed,
// purely by running measurement transfers through the engine and never
// by reading the configuration, so it is an oracle for what Table 1
// prints from the configuration: the end-to-end capacity, the
// saturation concurrency and the bottleneck class.

// probeReport is the outcome of profiling one testbed.
type probeReport struct {
	// singleStream is the throughput of one connection in bits/s, what
	// a single-stream Iperf run reports.
	singleStream float64
	// pathCapacity is the end-to-end capacity with ample parallelism,
	// in bits/s: a multi-stream Iperf run.
	pathCapacity float64
	// saturation is the smallest concurrency within probeTolerance of
	// pathCapacity: the environment's optimal concurrency.
	saturation int
	// lossAtSaturation and lossAtDouble are the packet-loss fractions
	// at the saturating concurrency and at twice it, the congestion
	// cost of overshooting (Figure 4's regime).
	lossAtSaturation, lossAtDouble float64
}

const (
	// probeMaxConcurrency bounds the sweep.
	probeMaxConcurrency = 64
	// probeTolerance is the relative shortfall from peak throughput
	// treated as saturated.
	probeTolerance = 0.03
	// probeSettle and probeMeasure are each sample's warm-up and
	// measurement windows, in simulated seconds.
	probeSettle, probeMeasure = 12.0, 6.0
)

// probeTestbed sweeps concurrency on the testbed with noise off, as
// profiling tools average it out. A doubling sweep (1, 2, 4, …) finds
// the plateau, then a linear scan refines the knee, so the sample count
// stays near 2·log₂(max) + knee width rather than max.
func probeTestbed(t *testing.T, cfg testbed.Config) probeReport {
	t.Helper()
	cfg.NoiseStdDev = 0
	mk := func() *transfer.Task {
		task, err := transfer.NewTask("probe", dataset.Uniform("probe", 50000, int64(dataset.GB)), transfer.DefaultSetting())
		if err != nil {
			t.Fatal(err)
		}
		return task
	}
	measure := func(ns []int) ([]float64, []float64) {
		tputs, losses, err := testbed.SweepConcurrency(cfg, 1, mk, ns, probeSettle, probeMeasure)
		if err != nil {
			t.Fatal(err)
		}
		return tputs, losses
	}

	var ns []int
	for n := 1; n <= probeMaxConcurrency; n *= 2 {
		ns = append(ns, n)
	}
	tputs, _ := measure(ns)
	peak := 0.0
	for _, v := range tputs {
		peak = math.Max(peak, v)
	}
	saturated := func(v float64) bool { return v >= peak*(1-probeTolerance) }

	// Bracket the knee by the first doubling point within tolerance,
	// then scan (lo, hi] linearly.
	lo, hi := 1, ns[len(ns)-1]
	for i, v := range tputs {
		if saturated(v) {
			hi = ns[i]
			if i > 0 {
				lo = ns[i-1]
			}
			break
		}
	}
	knee := hi
	var scan []int
	for n := lo + 1; n < hi; n++ {
		scan = append(scan, n)
	}
	if len(scan) > 0 {
		scanT, _ := measure(scan)
		for i, v := range scanT {
			if saturated(v) {
				knee = scan[i]
				break
			}
		}
	}

	_, losses := measure([]int{knee, min(2*knee, probeMaxConcurrency)})
	return probeReport{
		singleStream:     tputs[0] * 1e9,
		pathCapacity:     peak * 1e9,
		saturation:       knee,
		lossAtSaturation: losses[0],
		lossAtDouble:     losses[1],
	}
}

// probeBottleneck classifies the binding constraint the way the paper
// reads its Iperf/bonnie++ numbers: the declared resource whose
// capacity lies nearest, on a log scale, to the probed path capacity.
func probeBottleneck(cfg testbed.Config, r probeReport) string {
	cands := []struct {
		class string
		cap   float64
	}{
		{"Disk Read", cfg.SrcStore.AggregateCap},
		{"Disk Write", cfg.DstStore.AggregateCap},
		{"NIC", math.Min(cfg.SrcHost.NICCap, cfg.DstHost.NICCap)},
		{"Network", cfg.LinkCapacity},
	}
	best, bestDist := "", math.Inf(1)
	for _, c := range cands {
		if d := math.Abs(math.Log(r.pathCapacity / c.cap)); d < bestDist {
			best, bestDist = c.class, d
		}
	}
	return best
}

// TestTable1MatchesProbe: for every Table 1 preset, what the probe
// measures agrees with what Table 1 prints from the configuration —
// path capacity within 5 % of Engine.EndToEndCapacity, saturation
// concurrency within ±1 of Engine.SaturationConcurrency, and the
// probed bottleneck class equal to the configured one.
func TestTable1MatchesProbe(t *testing.T) {
	for _, cfg := range testbed.Table1() {
		t.Run(cfg.Name, func(t *testing.T) {
			eng, err := testbed.NewEngine(cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			r := probeTestbed(t, cfg)
			t.Logf("probed %.3g b/s at cc=%d; Table 1 %.3g b/s at cc=%d",
				r.pathCapacity, r.saturation, eng.EndToEndCapacity(), eng.SaturationConcurrency())
			if want := eng.EndToEndCapacity(); math.Abs(r.pathCapacity-want) > 0.05*want {
				t.Errorf("probed path capacity %.4g, Table 1 capacity %.4g", r.pathCapacity, want)
			}
			if want := eng.SaturationConcurrency(); r.saturation < want-1 || r.saturation > want+1 {
				t.Errorf("probed saturation concurrency %d, Table 1 %d", r.saturation, want)
			}
			if got := probeBottleneck(cfg, r); got != cfg.Bottleneck {
				t.Errorf("probed bottleneck %q, Table 1 %q", got, cfg.Bottleneck)
			}
		})
	}
}

// TestProfileEmulab: one Emulab process is held to its 10 Mbps I/O
// throttle, and pushing concurrency past the knee raises loss.
func TestProfileEmulab(t *testing.T) {
	r := probeTestbed(t, testbed.Emulab(10e6))
	if math.Abs(r.singleStream-10e6) > 1e6 {
		t.Fatalf("single stream = %v, want ≈10 Mbps (per-process throttle)", r.singleStream)
	}
	if r.lossAtDouble <= r.lossAtSaturation {
		t.Fatalf("doubling concurrency should raise loss: %v vs %v", r.lossAtDouble, r.lossAtSaturation)
	}
}

// TestProfileHPCLab: the HPCLab bottleneck is the receiver's disk, so
// overshooting the knee costs no packet loss.
func TestProfileHPCLab(t *testing.T) {
	if r := probeTestbed(t, testbed.HPCLab()); r.lossAtDouble > 0.005 {
		t.Fatalf("loss at 2x = %v, want ≈0 on a loss-free bottleneck", r.lossAtDouble)
	}
}

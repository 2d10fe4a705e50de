// Package iosim models the storage side of a data transfer node: a
// per-process (per I/O thread) rate limit, an aggregate device or file
// system capacity, and a contention penalty at high thread counts.
//
// The per-process limit is the reason concurrency matters at all: on a
// parallel file system (Lustre, GPFS) or a RAID array, a single
// reader/writer cannot saturate the device, so aggregate I/O grows
// roughly linearly with thread count up to a knee (the paper's Figure
// 1: 3–15× throughput gain from concurrency). Past the knee, additional
// threads add seek/metadata contention and slightly *reduce* effective
// aggregate capacity — the overhead that Falcon's utility function is
// designed to avoid paying for.
package iosim

import (
	"fmt"
	"math"
)

// Store describes one storage endpoint.
type Store struct {
	// Name identifies the store in diagnostics ("lustre", "nvme-raid").
	Name string
	// PerProcCap is the maximum throughput of a single I/O thread, in
	// bits/s.
	PerProcCap float64
	// AggregateCap is the device's total capacity with ideal parallel
	// access, in bits/s.
	AggregateCap float64
	// ContentionKnee is the thread count beyond which contention
	// begins to erode aggregate capacity. Zero means
	// ceil(AggregateCap/PerProcCap) — contention starts exactly when
	// the device is saturated.
	ContentionKnee int
	// ContentionRate is the fractional capacity loss per thread beyond
	// the knee (e.g. 0.004 → 0.4 % per extra thread). Zero disables
	// contention.
	ContentionRate float64
	// MaxDegradation bounds the contention penalty: effective capacity
	// never drops below (1-MaxDegradation)·AggregateCap. Zero means a
	// default of 0.5.
	MaxDegradation float64
}

// Validate checks the configuration.
func (s Store) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("iosim: store with empty name")
	}
	if s.PerProcCap <= 0 {
		return fmt.Errorf("iosim: store %q PerProcCap %v must be positive", s.Name, s.PerProcCap)
	}
	if s.AggregateCap <= 0 {
		return fmt.Errorf("iosim: store %q AggregateCap %v must be positive", s.Name, s.AggregateCap)
	}
	if s.AggregateCap < s.PerProcCap {
		return fmt.Errorf("iosim: store %q AggregateCap %v below PerProcCap %v", s.Name, s.AggregateCap, s.PerProcCap)
	}
	if s.ContentionKnee < 0 {
		return fmt.Errorf("iosim: store %q negative ContentionKnee %d", s.Name, s.ContentionKnee)
	}
	if s.ContentionRate < 0 || s.ContentionRate >= 1 {
		return fmt.Errorf("iosim: store %q ContentionRate %v outside [0,1)", s.Name, s.ContentionRate)
	}
	if s.MaxDegradation < 0 || s.MaxDegradation >= 1 {
		return fmt.Errorf("iosim: store %q MaxDegradation %v outside [0,1)", s.Name, s.MaxDegradation)
	}
	return nil
}

// knee returns the effective contention knee.
func (s Store) knee() int {
	if s.ContentionKnee > 0 {
		return s.ContentionKnee
	}
	return int(math.Ceil(s.AggregateCap / s.PerProcCap))
}

// maxDegradation returns the effective degradation bound.
func (s Store) maxDegradation() float64 {
	if s.MaxDegradation > 0 {
		return s.MaxDegradation
	}
	return 0.5
}

// EffectiveAggregate returns the device-wide capacity available when
// `threads` I/O threads are active across all transfer tasks sharing
// the store. Below the knee it equals AggregateCap; beyond it,
// capacity decays smoothly:
//
//	cap(n) = AggregateCap / (1 + rate·(n-knee))   for n > knee
//
// bounded below by (1-MaxDegradation)·AggregateCap.
func (s Store) EffectiveAggregate(threads int) float64 {
	if threads < 0 {
		panic(fmt.Sprintf("iosim: negative thread count %d", threads))
	}
	capv := s.AggregateCap
	k := s.knee()
	if s.ContentionRate > 0 && threads > k {
		capv = s.AggregateCap / (1 + s.ContentionRate*float64(threads-k))
	}
	if floor := (1 - s.maxDegradation()) * s.AggregateCap; capv < floor {
		capv = floor
	}
	return capv
}

// Preset stores mirroring Table 1 of the paper. Capacities are the
// "true" capacities a profiling tool (bonnie++) would report; the
// effective behaviour under concurrency comes from EffectiveAggregate.

// EmulabDisk returns the Emulab direct-attached disk with per-process
// read throttled to perProc bits/s (the paper throttles to 10 or
// 20 Mbps per process to emulate parallel-file-system behaviour).
func EmulabDisk(perProc float64) Store {
	return Store{
		Name:       "emulab-disk",
		PerProcCap: perProc,
		// 1 Gbps hardware limit per the paper's Figure 3 description.
		AggregateCap:   1e9,
		ContentionRate: 0.002,
	}
}

// LustreXSEDE returns the XSEDE Lustre store; disk read is the
// transfer bottleneck (~5.4 Gbps observed aggregate read in §4.1).
func LustreXSEDE() Store {
	return Store{
		Name:           "lustre-xsede",
		PerProcCap:     0.75e9,
		AggregateCap:   5.8e9,
		ContentionRate: 0.004,
	}
}

// NVMeRAIDHPCLab returns the HPCLab RAID-0 NVMe array; disk write is
// the bottleneck, needing ≈9 concurrent writers for ~27 Gbps (§4.1).
func NVMeRAIDHPCLab() Store {
	return Store{
		Name:           "nvme-hpclab",
		PerProcCap:     3.2e9,
		AggregateCap:   27e9,
		ContentionRate: 0.004,
	}
}

// GPFSCampus returns the Campus Cluster GPFS store (NIC-bottlenecked
// testbed: storage comfortably exceeds the 10 Gbps NIC).
func GPFSCampus() Store {
	return Store{
		Name:           "gpfs-campus",
		PerProcCap:     2.5e9,
		AggregateCap:   16e9,
		ContentionRate: 0.003,
	}
}

// LustrePetascale returns a Stampede2/Comet-class Lustre store used by
// the WAN multi-parameter experiments (§4.4): high aggregate capacity
// so the 40 Gbps network path is the eventual bottleneck.
func LustrePetascale() Store {
	return Store{
		Name:           "lustre-petascale",
		PerProcCap:     2.2e9,
		AggregateCap:   48e9,
		ContentionRate: 0.003,
	}
}

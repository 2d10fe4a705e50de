// Package scenario owns the description of a simulated transfer run:
// a versioned, validated, declarative document covering the
// environment (a named preset or explicit stores/hosts/link, or a
// routed topology), the agent roster (searcher type, join/leave
// schedule, knobs, datasets), and a timed mutation schedule — link
// capacity drops and flaps, cross-traffic waves, RTT shifts, and
// datasets that grow mid-transfer.
//
// The document is pure data: parsing and validation never construct
// engines, and malformed input always returns an error, never panics.
// Build (build.go) compiles a validated document into testbed
// participants and mutation horizons; cmd/falconsim, cmd/fleet, the
// webservice POST API, and experiments all consume documents through
// it, so one JSON file describes the same run everywhere.
package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/dataset"
	"repro/internal/hostsim"
	"repro/internal/iosim"
	"repro/internal/testbed"
)

// Version is the schema version this package reads and writes.
const Version = 1

// Document is one complete scenario description. All capacities are
// bits/s and all times seconds, matching the Go simulation structs, so
// a document round-trips to a testbed.Config without unit conversion.
type Document struct {
	// Version pins the schema; Parse rejects anything but Version.
	// Normalise fills it in when zero.
	Version int `json:"version"`
	// Name labels the scenario in output. Defaults to the preset name
	// or "scenario".
	Name string `json:"name,omitempty"`
	// Preset names a built-in environment: emulab, emulab-1g, xsede,
	// hpclab, campus, wan, fleet. Mutually exclusive with Environment.
	Preset string `json:"preset,omitempty"`
	// Environment describes the end-to-end path explicitly.
	Environment *EnvSpec `json:"environment,omitempty"`
	// Topology, when present, derives the link capacity and RTT from a
	// routed node/link graph instead of the environment's flat values.
	Topology *TopologySpec `json:"topology,omitempty"`
	// Seed is the base random seed; agent i is seeded Seed+i. Default 1.
	Seed int64 `json:"seed,omitempty"`
	// DurationSeconds is the simulated horizon. Default 300.
	DurationSeconds float64 `json:"duration_seconds,omitempty"`
	// TickSeconds is the simulation tick. Default 0.25.
	TickSeconds float64 `json:"tick_seconds,omitempty"`
	// RecordSeconds is the throughput-recording interval. Default 1.
	RecordSeconds float64 `json:"record_seconds,omitempty"`
	// Agents is the roster; each entry may expand to Count sessions.
	Agents []AgentSpec `json:"agents"`
	// Mutations is the timed schedule of environment changes.
	Mutations []MutationSpec `json:"mutations,omitempty"`
}

// StoreSpec mirrors iosim.Store.
type StoreSpec struct {
	Name           string  `json:"name"`
	PerProcCap     float64 `json:"per_proc_cap"`
	AggregateCap   float64 `json:"aggregate_cap"`
	ContentionKnee int     `json:"contention_knee,omitempty"`
	ContentionRate float64 `json:"contention_rate,omitempty"`
	MaxDegradation float64 `json:"max_degradation,omitempty"`
}

// Store converts the spec to the simulation struct.
func (s StoreSpec) Store() iosim.Store {
	return iosim.Store{
		Name:           s.Name,
		PerProcCap:     s.PerProcCap,
		AggregateCap:   s.AggregateCap,
		ContentionKnee: s.ContentionKnee,
		ContentionRate: s.ContentionRate,
		MaxDegradation: s.MaxDegradation,
	}
}

// HostSpec mirrors hostsim.Host.
type HostSpec struct {
	Name           string  `json:"name"`
	NICCap         float64 `json:"nic_cap"`
	CPUCap         float64 `json:"cpu_cap"`
	ConnOverhead   float64 `json:"conn_overhead,omitempty"`
	MaxDegradation float64 `json:"max_degradation,omitempty"`
}

// Host converts the spec to the simulation struct.
func (h HostSpec) Host() hostsim.Host {
	return hostsim.Host{
		Name:           h.Name,
		NICCap:         h.NICCap,
		CPUCap:         h.CPUCap,
		ConnOverhead:   h.ConnOverhead,
		MaxDegradation: h.MaxDegradation,
	}
}

// EnvSpec mirrors testbed.Config field for field.
type EnvSpec struct {
	Name           string    `json:"name"`
	SrcStore       StoreSpec `json:"src_store"`
	DstStore       StoreSpec `json:"dst_store"`
	SrcHost        HostSpec  `json:"src_host"`
	DstHost        HostSpec  `json:"dst_host"`
	LinkCapacity   float64   `json:"link_capacity"`
	RTT            float64   `json:"rtt"`
	SampleInterval float64   `json:"sample_interval"`
	NoiseStdDev    float64   `json:"noise_std_dev"`
	RampTau        float64   `json:"ramp_tau,omitempty"`
	Bottleneck     string    `json:"bottleneck,omitempty"`
	Congestion     string    `json:"congestion,omitempty"`
}

// Config converts the spec to the simulation struct.
func (e EnvSpec) Config() testbed.Config {
	return testbed.Config{
		Name:           e.Name,
		SrcStore:       e.SrcStore.Store(),
		DstStore:       e.DstStore.Store(),
		SrcHost:        e.SrcHost.Host(),
		DstHost:        e.DstHost.Host(),
		LinkCapacity:   e.LinkCapacity,
		RTT:            e.RTT,
		SampleInterval: e.SampleInterval,
		NoiseStdDev:    e.NoiseStdDev,
		RampTau:        e.RampTau,
		Bottleneck:     e.Bottleneck,
		Congestion:     e.Congestion,
	}
}

// TopologySpec derives the environment's link capacity and RTT from a
// routed graph: either an explicit node/link list or the Figure 3
// dumbbell shorthand. The route between Src and Dst (minimum latency)
// determines the RTT; the narrowest link along it is the path
// capacity. Link mutations then name topology links, and the compiler
// re-derives the path capacity whenever any route link changes.
type TopologySpec struct {
	// Dumbbell is the shorthand for netsim.Dumbbell. Mutually
	// exclusive with Nodes/Links.
	Dumbbell *DumbbellSpec `json:"dumbbell,omitempty"`
	// Nodes and Links describe an explicit graph.
	Nodes []string   `json:"nodes,omitempty"`
	Links []LinkSpec `json:"links,omitempty"`
	// Src and Dst are the transfer's endpoints. Dumbbell defaults to
	// src0 → dst0.
	Src string `json:"src,omitempty"`
	Dst string `json:"dst,omitempty"`
}

// LinkSpec is one bidirectional edge.
type LinkSpec struct {
	ID       string  `json:"id"`
	A        string  `json:"a"`
	B        string  `json:"b"`
	Capacity float64 `json:"capacity"`
	// Latency is the one-way latency in seconds.
	Latency float64 `json:"latency"`
}

// DumbbellSpec parameterizes netsim.Dumbbell.
type DumbbellSpec struct {
	Hosts             int     `json:"hosts"`
	AccessCap         float64 `json:"access_cap"`
	BottleneckCap     float64 `json:"bottleneck_cap"`
	BottleneckLatency float64 `json:"bottleneck_latency"`
}

// SettingSpec mirrors transfer.Setting.
type SettingSpec struct {
	Concurrency int `json:"concurrency"`
	Parallelism int `json:"parallelism"`
	Pipelining  int `json:"pipelining"`
}

// DatasetSpec describes a uniform dataset: a file count and a per-file
// size. It builds in O(1) memory at any count (dataset.Uniform holds no
// per-file state), so neither a large count nor a large fleet costs
// memory per file. An agent's dataset with every batch grown onto it is
// bounded to 2³¹−1 files and int64 bytes.
type DatasetSpec struct {
	// Label names the dataset; empty means the agent's own ID (a
	// private dataset per agent).
	Label string `json:"label,omitempty"`
	// Count is the number of files. Default 20000.
	Count int `json:"count,omitempty"`
	// Size is the per-file size in bytes. Default 1 GB.
	Size int64 `json:"size,omitempty"`
}

// AgentSpec describes one agent, or Count identical agents expanded
// with a join stagger.
type AgentSpec struct {
	// ID names the agent. Empty means "agent<N>" numbered 1-based
	// across the whole expanded roster. With Count > 1 the expanded
	// agents are "<ID>1", "<ID>2", …
	ID string `json:"id,omitempty"`
	// Count expands this spec into that many sessions. Default 1.
	Count int `json:"count,omitempty"`
	// Algorithm selects the controller: gd, bo, hc, globus, harp, or
	// fixed:N. Default gd.
	Algorithm string `json:"algorithm,omitempty"`
	// JoinAt is when the first expanded agent joins. Default 0.
	JoinAt float64 `json:"join_at,omitempty"`
	// JoinStagger spaces the expanded agents' joins.
	JoinStagger float64 `json:"join_stagger,omitempty"`
	// LeaveAt removes the agent at that time when positive (every
	// expanded agent leaves at the same time).
	LeaveAt float64 `json:"leave_at,omitempty"`
	// Link pins the agent's route through the named topology link:
	// the route becomes the minimum-latency simple path from src to
	// dst that traverses it (netsim.RouteVia), and the agent's shard
	// is keyed by that route. Empty means the default src→dst route.
	// Requires a topology.
	Link string `json:"link,omitempty"`
	// MaxConcurrency bounds the searcher's concurrency domain.
	// Default 64.
	MaxConcurrency int `json:"max_concurrency,omitempty"`
	// SampleInterval overrides the environment's decision cadence
	// when positive.
	SampleInterval float64 `json:"sample_interval,omitempty"`
	// Initial is the starting setting. Default {2,1,1} ({N,1,1} for
	// fixed:N); globus and harp leave it empty and start at their
	// controller's own setting.
	Initial *SettingSpec `json:"initial,omitempty"`
	// Dataset describes the transferred files.
	Dataset *DatasetSpec `json:"dataset,omitempty"`
}

// Mutation kind names accepted in documents.
const (
	KindLinkCapacity = "link-capacity"
	KindCrossTraffic = "cross-traffic"
	KindRTT          = "rtt"
	KindSrcStore     = "src-store"
	KindDstStore     = "dst-store"
	KindGrowDataset  = "grow-dataset"
)

// MutationSpec is one timed environment change.
type MutationSpec struct {
	// At is when the change takes effect, seconds.
	At float64 `json:"at"`
	// Kind is one of the Kind* names.
	Kind string `json:"kind"`
	// Link names the topology link a link-capacity or cross-traffic
	// mutation targets. Required with a topology, forbidden without.
	Link string `json:"link,omitempty"`
	// Capacity is the new capacity in bits/s (link-capacity), or the
	// new aggregate capacity (src-store/dst-store; 0 keeps current).
	Capacity float64 `json:"capacity,omitempty"`
	// PerProc is the new per-process store cap (src-store/dst-store;
	// 0 keeps current).
	PerProc float64 `json:"per_proc,omitempty"`
	// RTT is the new round-trip time in seconds (rtt).
	RTT float64 `json:"rtt,omitempty"`
	// DurationSeconds is a cross-traffic wave's length; the claimed
	// capacity is restored at At+DurationSeconds.
	DurationSeconds float64 `json:"duration_seconds,omitempty"`
	// Rate is the capacity a cross-traffic wave claims, bits/s.
	Rate float64 `json:"rate,omitempty"`
	// Agent targets a grow-dataset mutation.
	Agent string `json:"agent,omitempty"`
	// Grow describes the appended files.
	Grow *GrowSpec `json:"grow,omitempty"`
}

// GrowSpec is the file batch a grow-dataset mutation appends.
type GrowSpec struct {
	Count int   `json:"count"`
	Size  int64 `json:"size"`
}

// Parse decodes, normalises, and validates a scenario document.
// Unknown fields, malformed JSON, and semantically invalid documents
// all return errors; Parse never panics.
func Parse(data []byte) (*Document, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var d Document
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	// Trailing garbage after the document is an error, not ignored.
	if dec.More() {
		return nil, fmt.Errorf("scenario: trailing data after document")
	}
	if err := d.Normalise(); err != nil {
		return nil, err
	}
	return &d, nil
}

// ParseFile reads and parses one scenario file.
func ParseFile(path string) (*Document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	d, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// Flat lowers the flat form of a run — one preset, one algorithm for
// every agent, agents joining stagger seconds apart — onto a normalised
// document of one unnamed spec with Count agents: agent i (from 0) is
// "agent<i+1>", seeded seed+i, joins at i·stagger, and transfers its
// own default dataset from its algorithm's default initial setting.
// cmd/falconsim's flags and the webservice's flat request both lower
// through it. A document reads a zero as "use the default"; a flat run
// states every value, so a zero agent count, duration, seed or
// concurrency bound, or an empty algorithm, is an error.
func Flat(preset, algorithm string, agents int, stagger, duration float64, seed int64, maxConcurrency int) (*Document, error) {
	if algorithm == "" || agents == 0 || duration == 0 || seed == 0 || maxConcurrency == 0 {
		return nil, fmt.Errorf("scenario: a flat run needs an algorithm and non-zero agents, duration, seed and max concurrency")
	}
	d := &Document{
		Version:         Version,
		Preset:          preset,
		Seed:            seed,
		DurationSeconds: duration,
		Agents: []AgentSpec{{
			Count:          agents,
			Algorithm:      algorithm,
			JoinStagger:    stagger,
			MaxConcurrency: maxConcurrency,
		}},
	}
	if err := d.Normalise(); err != nil {
		return nil, err
	}
	return d, nil
}

// Normalise fills defaults in place and validates the document. A
// normalised document is explicit but for a globus or harp agent's
// initial setting, which its controller picks: re-normalising is a
// no-op, and its canonical encoding (Canonical) is the scenario's
// identity.
func (d *Document) Normalise() error {
	_, err := d.normalise()
	return err
}

// normalise is Normalise returning the expanded roster (AgentIDs) that
// validation built, so Build does not expand it again.
func (d *Document) normalise() ([]string, error) {
	if d.Version == 0 {
		d.Version = Version
	}
	if d.Seed == 0 {
		d.Seed = 1
	}
	if d.DurationSeconds == 0 {
		d.DurationSeconds = 300
	}
	if d.TickSeconds == 0 {
		d.TickSeconds = 0.25
	}
	if d.RecordSeconds == 0 {
		d.RecordSeconds = 1
	}
	if d.Name == "" {
		if d.Preset != "" {
			d.Name = d.Preset
		} else {
			d.Name = "scenario"
		}
	}
	for i := range d.Agents {
		a := &d.Agents[i]
		if a.Count == 0 {
			a.Count = 1
		}
		if a.Algorithm == "" {
			a.Algorithm = "gd"
		}
		if a.MaxConcurrency == 0 {
			a.MaxConcurrency = 64
		}
		if a.Initial == nil && a.Algorithm != "globus" && a.Algorithm != "harp" {
			ini := SettingSpec{Concurrency: 2, Parallelism: 1, Pipelining: 1}
			if n, ok := fixedConcurrency(a.Algorithm); ok {
				ini.Concurrency = n
			}
			a.Initial = &ini
		}
		if a.Dataset == nil {
			a.Dataset = &DatasetSpec{}
		}
		if a.Dataset.Count == 0 {
			a.Dataset.Count = 20000
		}
		if a.Dataset.Size == 0 {
			a.Dataset.Size = 1e9
		}
	}
	return d.validate()
}

// fixedConcurrency parses "fixed:N".
func fixedConcurrency(algo string) (int, bool) {
	if !strings.HasPrefix(algo, "fixed:") {
		return 0, false
	}
	n, err := strconv.Atoi(strings.TrimPrefix(algo, "fixed:"))
	if err != nil || n < 1 {
		return 0, false
	}
	return n, true
}

// knownAlgorithm reports whether algo names a buildable controller.
func knownAlgorithm(algo string) bool {
	switch algo {
	case "gd", "bo", "hc", "globus", "harp":
		return true
	}
	_, ok := fixedConcurrency(algo)
	return ok
}

// finitePos reports v > 0 and finite.
func finitePos(v float64) bool {
	return v > 0 && !math.IsInf(v, 0) && !math.IsNaN(v)
}

// finiteNonNeg reports v ≥ 0 and finite.
func finiteNonNeg(v float64) bool {
	return v >= 0 && !math.IsInf(v, 0) && !math.IsNaN(v)
}

// validate checks a (normalised) document without building anything and
// returns the expanded roster (AgentIDs).
func (d *Document) validate() ([]string, error) {
	if d.Version != Version {
		return nil, fmt.Errorf("scenario: unsupported version %d (want %d)", d.Version, Version)
	}
	if d.Preset != "" && d.Environment != nil {
		return nil, fmt.Errorf("scenario: preset %q and explicit environment are mutually exclusive", d.Preset)
	}
	if d.Preset == "" && d.Environment == nil {
		return nil, fmt.Errorf("scenario: need a preset or an environment")
	}
	if d.Preset != "" {
		if _, ok := PresetConfig(d.Preset); !ok {
			return nil, fmt.Errorf("scenario: unknown preset %q (have %s)", d.Preset, strings.Join(Presets(), ", "))
		}
	}
	if d.Environment != nil {
		cfg := d.Environment.Config()
		if d.Topology != nil {
			// The topology supplies link capacity and RTT; let explicit
			// zeros through by validating with placeholders.
			if cfg.LinkCapacity == 0 {
				cfg.LinkCapacity = 1
			}
			if cfg.RTT == 0 {
				cfg.RTT = 1
			}
		}
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("scenario: environment: %w", err)
		}
	}
	if !finitePos(d.DurationSeconds) {
		return nil, fmt.Errorf("scenario: duration %v must be positive and finite", d.DurationSeconds)
	}
	if !finitePos(d.TickSeconds) || d.TickSeconds > d.DurationSeconds {
		return nil, fmt.Errorf("scenario: tick %v must be positive, finite, and within the duration", d.TickSeconds)
	}
	if !finitePos(d.RecordSeconds) {
		return nil, fmt.Errorf("scenario: record interval %v must be positive and finite", d.RecordSeconds)
	}
	if len(d.Agents) == 0 {
		return nil, fmt.Errorf("scenario: no agents")
	}
	topoLinks, err := d.validateTopology()
	if err != nil {
		return nil, err
	}
	roster, ids, err := d.validateAgents(topoLinks)
	if err != nil {
		return nil, err
	}
	if err := d.validateMutations(roster, ids, topoLinks); err != nil {
		return nil, err
	}
	return roster, nil
}

// validateTopology checks the topology spec and returns the set of
// link IDs (nil when the document has no topology).
func (d *Document) validateTopology() (map[string]bool, error) {
	t := d.Topology
	if t == nil {
		return nil, nil
	}
	links := make(map[string]bool)
	if t.Dumbbell != nil {
		if len(t.Nodes) > 0 || len(t.Links) > 0 {
			return nil, fmt.Errorf("scenario: topology: dumbbell and explicit nodes/links are mutually exclusive")
		}
		db := t.Dumbbell
		if db.Hosts < 1 {
			return nil, fmt.Errorf("scenario: topology: dumbbell needs at least one host pair")
		}
		if db.Hosts > 4096 {
			return nil, fmt.Errorf("scenario: topology: dumbbell hosts %d too large", db.Hosts)
		}
		if !finitePos(db.AccessCap) || !finitePos(db.BottleneckCap) {
			return nil, fmt.Errorf("scenario: topology: dumbbell capacities must be positive and finite")
		}
		if !finiteNonNeg(db.BottleneckLatency) {
			return nil, fmt.Errorf("scenario: topology: dumbbell latency %v must be non-negative and finite", db.BottleneckLatency)
		}
		links["bottleneck"] = true
		for i := 0; i < db.Hosts; i++ {
			links[fmt.Sprintf("access-src%d", i)] = true
			links[fmt.Sprintf("access-dst%d", i)] = true
		}
		return links, nil
	}
	if len(t.Nodes) == 0 || len(t.Links) == 0 {
		return nil, fmt.Errorf("scenario: topology: need nodes and links (or a dumbbell)")
	}
	nodes := make(map[string]bool, len(t.Nodes))
	for _, n := range t.Nodes {
		if n == "" {
			return nil, fmt.Errorf("scenario: topology: empty node name")
		}
		if nodes[n] {
			return nil, fmt.Errorf("scenario: topology: duplicate node %q", n)
		}
		nodes[n] = true
	}
	for _, l := range t.Links {
		if l.ID == "" {
			return nil, fmt.Errorf("scenario: topology: link with empty ID")
		}
		if links[l.ID] {
			return nil, fmt.Errorf("scenario: topology: duplicate link %q", l.ID)
		}
		if !nodes[l.A] || !nodes[l.B] {
			return nil, fmt.Errorf("scenario: topology: link %q references unknown node (%q, %q)", l.ID, l.A, l.B)
		}
		if !finitePos(l.Capacity) {
			return nil, fmt.Errorf("scenario: topology: link %q capacity %v must be positive and finite", l.ID, l.Capacity)
		}
		if !finiteNonNeg(l.Latency) {
			return nil, fmt.Errorf("scenario: topology: link %q latency %v must be non-negative and finite", l.ID, l.Latency)
		}
		links[l.ID] = true
	}
	if t.Src == "" || t.Dst == "" {
		return nil, fmt.Errorf("scenario: topology: explicit graphs need src and dst endpoints")
	}
	if !nodes[t.Src] {
		return nil, fmt.Errorf("scenario: topology: unknown src node %q", t.Src)
	}
	if !nodes[t.Dst] {
		return nil, fmt.Errorf("scenario: topology: unknown dst node %q", t.Dst)
	}
	if t.Src == t.Dst {
		return nil, fmt.Errorf("scenario: topology: src and dst are both %q", t.Src)
	}
	return links, nil
}

// maxFleet bounds the expanded roster; a backstop against typo'd
// counts, an order of magnitude above the 100k-session sharded fleet
// workload.
const maxFleet = 1000000

// agentRef names an agent spec in error messages: the field path plus
// the agent's identity — its declared ID, or the first expanded ID
// ("agent<N>") for unnamed specs, so the message always points at a
// concrete agent. firstN is the 1-based roster number of the spec's
// first expanded agent.
func agentRef(i int, a *AgentSpec, firstN int) string {
	id := a.ID
	if id == "" {
		id = fmt.Sprintf("agent%d", firstN)
	}
	return fmt.Sprintf("agents[%d] (id %q)", i, id)
}

// validateAgents checks the roster against the topology's link set and
// returns the expanded agent IDs (AgentIDs), as a slice and as a set.
func (d *Document) validateAgents(topoLinks map[string]bool) ([]string, map[string]bool, error) {
	total := 0
	for i := range d.Agents {
		a := &d.Agents[i]
		firstN := total + 1
		if a.Count < 1 {
			return nil, nil, fmt.Errorf("scenario: agent %d count %d must be ≥ 1", i, a.Count)
		}
		total += a.Count
		if total > maxFleet {
			return nil, nil, fmt.Errorf("scenario: more than %d agents", maxFleet)
		}
		if a.Link != "" {
			if topoLinks == nil {
				return nil, nil, fmt.Errorf("scenario: %s: link %q pinned but the document has no topology",
					agentRef(i, a, firstN), a.Link)
			}
			if !topoLinks[a.Link] {
				return nil, nil, fmt.Errorf("scenario: %s: link %q is not defined in the topology",
					agentRef(i, a, firstN), a.Link)
			}
		}
		if !knownAlgorithm(a.Algorithm) {
			return nil, nil, fmt.Errorf("scenario: agent %d unknown algorithm %q", i, a.Algorithm)
		}
		if !finiteNonNeg(a.JoinAt) {
			return nil, nil, fmt.Errorf("scenario: agent %d join_at %v must be non-negative and finite", i, a.JoinAt)
		}
		if !finiteNonNeg(a.JoinStagger) {
			return nil, nil, fmt.Errorf("scenario: agent %d join_stagger %v must be non-negative and finite", i, a.JoinStagger)
		}
		if a.LeaveAt != 0 {
			lastJoin := a.JoinAt + float64(a.Count-1)*a.JoinStagger
			if !finitePos(a.LeaveAt) || a.LeaveAt <= lastJoin {
				return nil, nil, fmt.Errorf("scenario: agent %d leave_at %v must be after its last join %v", i, a.LeaveAt, lastJoin)
			}
		}
		if a.MaxConcurrency < 2 {
			return nil, nil, fmt.Errorf("scenario: agent %d max_concurrency %d must be ≥ 2", i, a.MaxConcurrency)
		}
		if a.SampleInterval < 0 || math.IsNaN(a.SampleInterval) || math.IsInf(a.SampleInterval, 0) {
			return nil, nil, fmt.Errorf("scenario: agent %d sample_interval %v must be non-negative and finite", i, a.SampleInterval)
		}
		if a.Initial != nil {
			s := a.Initial
			if s.Concurrency < 1 || s.Parallelism < 1 || s.Pipelining < 1 {
				return nil, nil, fmt.Errorf("scenario: agent %d initial setting cc=%d p=%d q=%d must be ≥ 1 each",
					i, s.Concurrency, s.Parallelism, s.Pipelining)
			}
		}
		if ds := a.Dataset; ds != nil {
			if ds.Count < 1 {
				return nil, nil, fmt.Errorf("scenario: agent %d dataset count %d must be ≥ 1", i, ds.Count)
			}
			if ds.Size < 1 {
				return nil, nil, fmt.Errorf("scenario: agent %d dataset size %d must be ≥ 1", i, ds.Size)
			}
			if _, _, ok := addBatch(0, 0, ds.Count, ds.Size); !ok {
				return nil, nil, fmt.Errorf("scenario: %s: dataset of %d files × %d bytes exceeds %d files or int64 bytes",
					agentRef(i, a, firstN), ds.Count, ds.Size, maxAgentFiles)
			}
		}
	}
	// Expansion assigns final IDs; collect them for mutation refs and
	// duplicate detection.
	roster := d.AgentIDs()
	ids := make(map[string]bool, len(roster))
	for _, id := range roster {
		if ids[id] {
			return nil, nil, fmt.Errorf("scenario: duplicate agent ID %q", id)
		}
		ids[id] = true
	}
	return roster, ids, nil
}

// Sessions returns the expanded roster's length, len(AgentIDs()),
// without building the IDs.
func (d *Document) Sessions() int {
	n := 0
	for i := range d.Agents {
		n += max(d.Agents[i].Count, 1)
	}
	return n
}

// AgentIDs returns the expanded roster's IDs in join-spec order:
// unnamed specs number "agent<N>" 1-based across the document; named
// specs use their ID, suffixed 1..Count when Count > 1.
func (d *Document) AgentIDs() []string {
	out := make([]string, 0, len(d.Agents))
	n := 0
	for i := range d.Agents {
		a := &d.Agents[i]
		count := a.Count
		if count < 1 {
			count = 1
		}
		for j := 0; j < count; j++ {
			n++
			switch {
			case a.ID == "":
				out = append(out, fmt.Sprintf("agent%d", n))
			case count == 1:
				out = append(out, a.ID)
			default:
				out = append(out, fmt.Sprintf("%s%d", a.ID, j+1))
			}
		}
	}
	return out
}

// mutKey returns the resource-conflict key of a mutation: two
// mutations with the same key touch the same knob, so their times may
// not coincide (and cross-traffic windows may not overlap anything on
// the key).
func (m *MutationSpec) mutKey() string {
	switch m.Kind {
	case KindLinkCapacity, KindCrossTraffic:
		return "link:" + m.Link
	case KindRTT:
		return "rtt"
	case KindSrcStore:
		return "src-store"
	case KindDstStore:
		return "dst-store"
	case KindGrowDataset:
		return "grow:" + m.Agent
	}
	return "?" + m.Kind
}

// maxAgentFiles bounds one agent's files, its dataset plus every batch
// grown onto it: the engine mirrors a task's remaining files in an
// int32.
const maxAgentFiles = math.MaxInt32

// addBatch adds count files of size bytes to an agent's running file
// and byte totals, and reports false when that leaves the bounds
// (maxAgentFiles files, int64 bytes).
func addBatch(files, bytes int64, count int, size int64) (int64, int64, bool) {
	b, ok := dataset.BatchBytes(count, size)
	if !ok || int64(count) > maxAgentFiles-files || b > math.MaxInt64-bytes {
		return files, bytes, false
	}
	return files + int64(count), bytes + b, true
}

// growth totals the batches a document's grow mutations add to one
// agent; last is the index of the latest, for errors.
type growth struct {
	files, bytes int64
	last         int
}

// validateMutations checks kinds, fields, references, and overlap
// against the expanded roster, as a slice and as a set.
func (d *Document) validateMutations(roster []string, agentIDs, topoLinks map[string]bool) error {
	type span struct {
		key      string
		from, to float64
		idx      int
	}
	spans := make([]span, 0, len(d.Mutations))
	var grown map[string]growth
	for i := range d.Mutations {
		m := &d.Mutations[i]
		if !finiteNonNeg(m.At) {
			return fmt.Errorf("scenario: mutation %d at %v must be non-negative and finite", i, m.At)
		}
		if m.At >= d.DurationSeconds {
			return fmt.Errorf("scenario: mutation %d at %v is past the %v s horizon", i, m.At, d.DurationSeconds)
		}
		switch m.Kind {
		case KindLinkCapacity:
			if !finitePos(m.Capacity) {
				return fmt.Errorf("scenario: mutation %d (%s) capacity %v must be positive and finite", i, m.Kind, m.Capacity)
			}
		case KindCrossTraffic:
			if !finitePos(m.Rate) {
				return fmt.Errorf("scenario: mutation %d (%s) rate %v must be positive and finite", i, m.Kind, m.Rate)
			}
			if !finitePos(m.DurationSeconds) {
				return fmt.Errorf("scenario: mutation %d (%s) duration %v must be positive and finite", i, m.Kind, m.DurationSeconds)
			}
		case KindRTT:
			if !finitePos(m.RTT) {
				return fmt.Errorf("scenario: mutation %d (%s) rtt %v must be positive and finite", i, m.Kind, m.RTT)
			}
		case KindSrcStore, KindDstStore:
			if m.Capacity == 0 && m.PerProc == 0 {
				return fmt.Errorf("scenario: mutation %d (%s) changes nothing", i, m.Kind)
			}
			if !finiteNonNeg(m.Capacity) || !finiteNonNeg(m.PerProc) {
				return fmt.Errorf("scenario: mutation %d (%s) capacities must be non-negative and finite", i, m.Kind)
			}
		case KindGrowDataset:
			if m.Agent == "" {
				return fmt.Errorf("scenario: mutation %d (%s) names no agent", i, m.Kind)
			}
			if !agentIDs[m.Agent] {
				return fmt.Errorf("scenario: mutation %d (%s) references unknown agent %q", i, m.Kind, m.Agent)
			}
			if m.Grow == nil || m.Grow.Count < 1 || m.Grow.Size < 1 {
				return fmt.Errorf("scenario: mutation %d (%s) needs grow.count ≥ 1 and grow.size ≥ 1", i, m.Kind)
			}
			if grown == nil {
				grown = make(map[string]growth)
			}
			g := grown[m.Agent]
			var ok bool
			if g.files, g.bytes, ok = addBatch(g.files, g.bytes, m.Grow.Count, m.Grow.Size); !ok {
				return fmt.Errorf("scenario: mutation %d (%s) grows agent %q past %d files or int64 bytes", i, m.Kind, m.Agent, maxAgentFiles)
			}
			g.last = i
			grown[m.Agent] = g
		default:
			return fmt.Errorf("scenario: mutation %d unknown kind %q", i, m.Kind)
		}
		switch m.Kind {
		case KindLinkCapacity, KindCrossTraffic:
			if topoLinks == nil && m.Link != "" {
				return fmt.Errorf("scenario: mutation %d names link %q but the document has no topology", i, m.Link)
			}
			if topoLinks != nil && !topoLinks[m.Link] {
				return fmt.Errorf("scenario: mutation %d references unknown link %q", i, m.Link)
			}
		default:
			if m.Link != "" {
				return fmt.Errorf("scenario: mutation %d (%s) does not take a link", i, m.Kind)
			}
		}
		to := m.At
		if m.Kind == KindCrossTraffic {
			to = m.At + m.DurationSeconds
		}
		spans = append(spans, span{key: m.mutKey(), from: m.At, to: to, idx: i})
	}
	if err := d.checkGrowth(grown, roster); err != nil {
		return err
	}
	// Overlap: same-key point mutations may not share a time, and a
	// cross-traffic window conflicts with anything on its key inside
	// [At, At+Duration] — a simultaneous or mid-wave change has no
	// well-defined order.
	sort.Slice(spans, func(a, b int) bool {
		if spans[a].key != spans[b].key {
			return spans[a].key < spans[b].key
		}
		if spans[a].from != spans[b].from {
			return spans[a].from < spans[b].from
		}
		return spans[a].idx < spans[b].idx
	})
	for i := 1; i < len(spans); i++ {
		p, q := &spans[i-1], &spans[i]
		if p.key == q.key && q.from <= p.to {
			return fmt.Errorf("scenario: mutations %d and %d overlap on %s", p.idx, q.idx, p.key)
		}
	}
	return nil
}

// checkGrowth rejects an agent whose dataset plus every batch grown
// onto it leaves addBatch's bounds, so a growth cannot fail mid-run.
// ids is the expanded roster.
func (d *Document) checkGrowth(grown map[string]growth, ids []string) error {
	if len(grown) == 0 {
		return nil
	}
	n := 0
	for i := range d.Agents {
		a := &d.Agents[i]
		for range a.Count {
			id := ids[n]
			n++
			g, ok := grown[id]
			if !ok || a.Dataset == nil {
				continue
			}
			if _, _, ok := addBatch(g.files, g.bytes, a.Dataset.Count, a.Dataset.Size); !ok {
				return fmt.Errorf("scenario: mutation %d (%s) grows agent %q past %d files or int64 bytes",
					g.last, KindGrowDataset, id, maxAgentFiles)
			}
		}
	}
	return nil
}

// Canonical returns the normalised document's canonical JSON encoding:
// deterministic field order with every default made explicit. Two
// scenarios are the same run if and only if their canonical encodings
// are equal, which is what the webservice result cache keys on — a
// document differing only in its mutation schedule encodes differently
// and can never alias.
func (d *Document) Canonical() ([]byte, error) {
	if err := d.Normalise(); err != nil {
		return nil, err
	}
	return json.Marshal(d)
}

// Hash returns the hex SHA-256 of the canonical encoding, or an error
// for invalid documents.
func (d *Document) Hash() (string, error) {
	b, err := d.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

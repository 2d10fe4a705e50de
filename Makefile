GO ?= go

.PHONY: build test race vet bench bench-raw benchcheck memsmoke loadsmoke reproduce transparency verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Benchmark sweep + end-to-end reproduce timing, recorded as JSON at
# the repo root so perf changes land with reviewable numbers.
bench:
	$(GO) run ./cmd/simbench -out BENCH_sim.json

# Raw hot-path benchmarks with allocation counts, for interactive use.
bench-raw:
	$(GO) test -run xxx -bench . -benchtime 1s ./internal/netsim/ ./internal/testbed/ ./internal/bayesopt/

# Memory-regression smoke (run in CI), one run per road, each inside a
# checked-in peak-heap budget of about twice its measured peak, so only
# a real per-session memory regression trips it:
# - flag road: a 10k-session fleet in streaming-aggregate mode, measured
#   ~117 MB (≈11.7 kB/session) against 256 MB;
# - document road: the 10k-session capacity-flap scenario with full
#   recording, 12.4–13.3 s of simulation on a 2-core VM (it joins a
#   session on most ticks for 500 of its 600 s, so 2 001 of its 2 400
#   engine ticks are full steps), measured 310–318 MB (≈31 kB/session)
#   against 600 MB. Before its agents were fleet-weight it peaked at
#   637 MB, over this budget.
FLEET_HEAP_BUDGET ?= 268435456
DOC_FLEET_HEAP_BUDGET ?= 600000000

memsmoke:
	$(GO) run ./cmd/fleet -n 10000 -duration 120 -stagger 0.001 -record aggregate -seed 1 -maxheap $(FLEET_HEAP_BUDGET)
	$(GO) run ./cmd/fleet -scenario examples/scenarios/fleet-10k-flap.json -maxheap $(DOC_FLEET_HEAP_BUDGET)

# Serving-path smoke (run in CI): a race-enabled load-generator run
# against the in-process web service. -smoke asserts nonzero
# throughput, zero request errors, at least one coalesce hit (the
# single-flight path actually engaged), and every duplicate group
# resolving to exactly one simulation with bitwise-equal results.
loadsmoke:
	$(GO) run -race ./cmd/falconload -inproc -n 120 -c 16 -workers 2 \
		-hot 0.3 -unique 0.1 -dup 0.6 -dupwidth 6 -sse 0.3 -smoke

# The repo benchmark (BENCHMARK.json, benchmark/) is a module of its
# own, so `./...` from the root never reaches it: vet it and run its
# unit tests and toy-size smoke of all four workloads here.
benchcheck:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

reproduce:
	$(GO) run ./cmd/reproduce

# The byte-identity list: every test that pins a production path
# against its test-side reference (the always-tick scheduler loop, the
# per-flow water-fill) or against a checked-in golden, re-run twice
# under the race detector. This list is the one place such a test is
# added. CI calls the target.
RACE2 = $(GO) test -race -count=2 -run

transparency:
	$(RACE2) TestPredictIntoMatchesPredict ./internal/bayesopt/
	$(RACE2) 'TestClassAggregationTransparencyProperty|TestClassCacheAcrossCalls' ./internal/netsim/
	$(RACE2) 'TestMutatedAllocationMatchesFreshNetwork|TestTopologyRouteUnderMutation|TestCapacityGeneration|TestRetuneMatchesFreshAllocation' ./internal/netsim/
	$(RACE2) TestTickEqualsPhases ./internal/session/
	$(RACE2) 'TestEventQueueSchedulerIsTransparent|TestEventHorizonSteppingIsTransparent|TestQueueLiveListUnderChurn|TestHorizonHeapProperty|TestHorizonQueueAllocatesNothing|TestSchedulerCountsPinned' ./internal/testbed/
	$(RACE2) 'TestAllocMemoIsTransparent|TestClassAllocIsTransparent|TestRecordModesEngineTransparent|TestEventIndexAndSeriesByPart' ./internal/testbed/
	$(RACE2) 'TestMutationsTransparentAcrossModes|TestMutationsMemoTransparent' ./internal/testbed/
	$(RACE2) 'TestRunTicksHonoursOutOfBandRetune|TestSettingsOnlyTicksTakeTheRetuneTier' ./internal/testbed/
	$(RACE2) 'TestUndeclaredControllersStayOnTheShardGoroutine|TestParallelControllerPanicSurfacesOnDriver' ./internal/testbed/
	$(RACE2) 'TestScenarioExecutionDeterministic|TestFleetGolden|TestZeroWorkersMeansHarnessDefault' ./internal/scenario/
	$(RACE2) 'TestFleetAggregateMatchesFull|TestFleetFlagGolden|TestDynamicFleetWorkersTransparent' ./internal/experiments/
	$(RACE2) 'TestSSEStreamMatchesPolledProgress|TestCoalescedWaitersMatchSoloRun|TestDrainClosesSSEClients|TestSessionFrameMatchesJSONMarshal|FuzzSessionFrame|TestHeavySSEGolden|TestSSEReplayIsChunked|TestFollowerWakesOncePerInstant|TestMidRunFollowerMatchesReplay|TestFinishBetweenTailAndCheckKeepsLastInstant' ./internal/webservice/

# Full gate: static checks, build, the race-enabled suite, the
# transparency re-runs, the benchmark module's own checks, and every
# checked-in scenario document parsing AND compiling.
verify: benchcheck transparency
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...
	$(GO) run ./cmd/falconsim -validate ./examples/scenarios

GO ?= go

.PHONY: build test race vet fmtcheck bench-raw benchsmoke benchcheck memsmoke reproduce transparency verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Formatting drift fails the gate: gofmt -l lists every file (the
# benchmark module included) whose formatting differs from gofmt's.
fmtcheck:
	@out=$$(gofmt -l .) || exit 1; \
	if [ -n "$$out" ]; then echo "fmtcheck: not gofmt-clean (run gofmt -w):" >&2; echo "$$out" >&2; exit 1; fi

# Raw hot-path benchmarks with allocation counts, for interactive use.
bench-raw:
	$(GO) test -run xxx -bench . -benchtime 1s ./internal/netsim/ ./internal/testbed/ ./internal/bayesopt/

# Every benchmark in the module, run once. No name list, so a renamed
# or new benchmark cannot drop out; the AllocsPerRun guards inside
# benchmarks (BenchmarkAllocate1kFlows, …) run with them. The numbers
# are the repo benchmark's job (BENCHMARK.json, benchmark/run.sh).
benchsmoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# Memory-regression smoke (run in CI), one run per road, each inside a
# checked-in peak-heap budget of about twice its measured peak, so only
# a real per-session memory regression trips it:
# - flag road: a 10k-session fleet, its flags lowered onto a scenario
#   document and its throughput streamed into window aggregates,
#   measured 45.9–54.3 MB (50.1 MB in most runs, ≈5.0 kB/session; the
#   same as before the lowering) against 96 MiB;
# - document road: the 10k-session capacity-flap scenario with full
#   recording, 8.7–10.8 s of simulation on a 2-core VM (it joins a
#   session on most ticks for 500 of its 600 s, so 2 001 of its 2 400
#   engine ticks are full steps), measured 155 MB (≈15.5 kB/session)
#   against 320 MB.
# Both were re-measured and the budgets tightened when the BO searcher
# stopped keeping per-call scratch: the roads measured ~79 MB and
# 310–322 MB before. The document road's was tightened again when the
# refairness report's window means stopped copying their windows
# (Series.MeanBetween): 272 MB before. Both were re-measured when a BO
# searcher started holding its window only from its first observation
# to its session's end: the flag road's budget went from 128 MiB (it
# measured 54–63 MB before); the document road, whose windows are all
# live at its end, stayed at 155–159 MB.
FLEET_HEAP_BUDGET ?= 100663296
DOC_FLEET_HEAP_BUDGET ?= 320000000

memsmoke:
	$(GO) run ./cmd/fleet -n 10000 -duration 120 -stagger 0.001 -seed 1 -maxheap $(FLEET_HEAP_BUDGET)
	$(GO) run ./cmd/fleet -scenario examples/scenarios/fleet-10k-flap.json -maxheap $(DOC_FLEET_HEAP_BUDGET)

# The repo benchmark (BENCHMARK.json, benchmark/) is a module of its
# own, so `./...` from the root never reaches it: vet it and run its
# unit tests and toy-size smoke of all four workloads under the race
# detector. The service-mix smoke is the serving path's load check:
# concurrent clients, cache hits, duplicate pairs and SSE followers.
benchcheck:
	cd benchmark && $(GO) vet ./... && $(GO) test -race ./...

reproduce:
	$(GO) run ./cmd/reproduce

# The byte-identity list: every test that pins a production path
# against its test-side reference (the always-tick scheduler loop, the
# per-flow water-fill, the Table 1 probe) or against a checked-in
# golden, every test that holds a benchmark to its 0 allocs/op claim,
# and the guard that synthetic datasets hold no per-file objects, re-run
# twice under the race detector. This list is the one
# place such a test is added.
#
# race2 checks every |-separated name in $(1) against `go test -list`
# for package $(2), then re-runs the names twice under the race
# detector. The check fails on a name that is no test: `-run` alone
# passes when it matches nothing, so a renamed or deleted test would
# silently drop out of the list.
define race2
@tests=$$($(GO) test -list . $(2)) || exit 1; \
for n in $$(echo '$(1)' | tr '|' ' '); do \
	echo "$$tests" | grep -qx "$$n" || { echo "transparency: $(2) has no test $$n" >&2; exit 1; }; \
done
$(GO) test -race -count=2 -run '$(1)' $(2)
endef

transparency:
	$(call race2,TestPredictIntoMatchesPredict|TestRefitMatchesIndependentFits|TestSearchAllocationsIndependentOfCallCount,./internal/bayesopt/)
	$(call race2,TestSearchReservesOnFirstObservation|TestReleasedSearchPanics|TestSearchConstructionFootprint,./internal/bayesopt/)
	$(call race2,TestInterleavedUpdatesMatchSingleCalls,./internal/linalg/)
	$(call race2,TestForEachOrderedCoversEveryIndexOnce|TestForEachOrderedInline|TestForEachOrderedZeroAndNegative|TestForEachOrderedPanicStopsHelpers|TestForEachOrderedAllocatesOnlyHelperStarts|TestMapResultsInIndexOrder|TestMapReturnsLowestFailingError|TestMapPanicStopsHelpers|TestMapInline|TestMapZeroAndNegative,./internal/parallel/)
	$(call race2,TestSyntheticDatasetsHoldNoPerFileObjects,./internal/dataset/)
	$(call race2,TestMeanBetweenMatchesBetween,./internal/trace/)
	$(call race2,TestClassAggregationTransparencyProperty|TestClassCacheAcrossCalls,./internal/netsim/)
	$(call race2,TestMutatedAllocationMatchesFreshNetwork|TestTopologyRouteUnderMutation|TestRetuneMatchesFreshAllocation,./internal/netsim/)
	$(call race2,TestTickEqualsPhases|TestTerminalEventsReleaseDecider,./internal/session/)
	$(call race2,TestEventQueueSchedulerIsTransparent|TestEventHorizonSteppingIsTransparent|TestQueueLiveListUnderChurn|TestHorizonHeapProperty|TestHorizonQueueAllocatesNothing|TestSchedulerCountsPinned|TestInvalidSettingInFanoutSurfacesOnCaller,./internal/testbed/)
	$(call race2,TestTieredRunMatchesPerTickReference|TestClassAllocIsTransparent|TestRecordModesEngineTransparent|TestEventIndexAndSeriesByPart,./internal/testbed/)
	$(call race2,TestMutationsTransparentAcrossModes,./internal/testbed/)
	$(call race2,TestRunTicksHonoursOutOfBandRetune|TestSettingsOnlyTicksTakeTheRetuneTier|TestRetuneRefillsWhenOnlyCapacitiesMove,./internal/testbed/)
	$(call race2,TestUndeclaredControllersStayOnTheShardGoroutine|TestParallelControllerPanicSurfacesOnDriver,./internal/testbed/)
	$(call race2,TestFleetStepAllocatesNothing|TestFleetStep10kAllocatesNothing|TestFleetRecordFull10kAllocatesNothing|TestSchedulerRunAllocatesNothing|TestRetuneTickAllocatesNothing,./internal/testbed/)
	$(call race2,TestScenarioExecutionDeterministic|TestFleetGolden|TestZeroWorkersMeansHarnessDefault|TestEndedSessionsReleaseTheirControllers,./internal/scenario/)
	$(call race2,TestReproduceGolden|TestFleetAggregateMatchesFull|TestFleetFlagGolden|TestDynamicFleetGolden|TestDynamicFleetWorkersTransparent|TestTable1MatchesProbe,./internal/experiments/)
	$(call race2,TestFlagRoadGolden|TestFlagRoadMatchesDocument,./cmd/fleet/)
	$(call race2,TestFlagRoadGolden|TestFlagRoadMatchesDocument,./cmd/falconsim/)
	$(call race2,TestSSEStreamMatchesPolledProgress|TestCoalescedWaitersMatchSoloRun|TestDrainClosesSSEClients|TestSessionFrameMatchesJSONMarshal|FuzzSessionFrame|TestHeavySSEGolden|TestSSEReplayIsChunked|TestFollowerWakesOncePerInstant|TestMidRunFollowerMatchesReplay|TestFinishBetweenTailAndCheckKeepsLastInstant|TestConcurrentDuplicatesRunOnce,./internal/webservice/)
	$(call race2,TestRetainedScenarioHoldsOnlyWhatItServes|TestPackRaisesBitwise|TestSpilledRecordsStream|TestRetainedScenarioFootprint,./internal/webservice/)

# The one gate, and CI's only step: the formatting check, the memory
# smoke, every benchmark once, the benchmark module's own checks, the
# transparency re-runs, then static checks, build, the race-enabled
# suite, and every checked-in scenario document parsing AND compiling.
verify: fmtcheck memsmoke benchsmoke benchcheck transparency
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...
	$(GO) run ./cmd/falconsim -validate ./examples/scenarios

# Tier-1 verification for the fscoherence reproduction.
#
#   make ci      — the full tier-1 gate: formatting, the PROTOCOL.md drift
#                  check (speccheck), vet, build, tests, the race detector
#                  over every package, the cross-engine equivalence suite
#                  (naive and skip must be byte-identical), the
#                  allocation smoke runs, samplecheck, resumecheck,
#                  fuzzsmoke and benchsmoke.
#   make check   — static gate only: gofmt -l must be clean, PROTOCOL.md's
#                  generated region must match internal/coherence/spec, the
#                  spec package must godoc cleanly, then go vet and the unit
#                  tests.
#   make specdocs — regenerate PROTOCOL.md §§2–4 from internal/coherence/spec
#                  (run after editing the protocol tables).
#   make test    — build + unit tests only (fast inner loop).
#   make race    — race-detector pass only.
#   make equiv   — cross-engine equivalence tests only, plus the liveness
#                  check tripping on the same cycle on both engines.
#   make samplecheck — the interval-sampling validation gate: sampled
#                  estimates must land within tolerance of full reference
#                  runs, must be byte-identical across -j worker counts, and
#                  every benchmark must sample under Verify with no oracle
#                  or SWMR violation.
#   make resumecheck — the crash-resilience gate: campaign journals must
#                  resume with completed cells primed and byte-identical
#                  results, tolerate a torn final record, and rerun a cell
#                  the watchdog timed out; a campaign SIGKILLed before its
#                  third cell is journaled must resume to the uninterrupted
#                  table, under -race.
#   make sweep   — regenerate the paper's tables (fsexp -all: the default
#                  skip engine, cells run in parallel across NumCPU workers).
#   make fuzzsmoke — CI-sized protocol fuzzing: a fixed 60-seed corpus across
#                  the three protocols under fault injection, plus the oracle
#                  selfcheck (seeded bugs must be caught and shrunk). ~30s.
#   make benchsmoke — the fsbench module's own tests (bench/ is a nested Go
#                  module the root `go test ./...` cannot reach): its pinned
#                  model-output goldens and the assembled-vs-run check. ~6s.
#   make fuzz    — full fuzzing campaign (SEEDS=200 by default); not tier-1.

GO ?= go
GOFMT ?= gofmt
SEEDS ?= 200

.PHONY: ci check fmt test race equiv allocsmoke samplecheck resumecheck benchsmoke sweep fuzz fuzzsmoke specdocs speccheck

ci: check race equiv allocsmoke samplecheck resumecheck fuzzsmoke benchsmoke

check: fmt speccheck test

# Rewrite the generated region of PROTOCOL.md (§§2–4) from the protocol
# tables in internal/coherence/spec.
specdocs:
	$(GO) run ./cmd/fsspec -w

# Fail if the committed PROTOCOL.md drifted from the spec tables, and smoke
# the spec package's godoc (a parse failure here breaks `go doc`).
speccheck:
	$(GO) run ./cmd/fsspec -check
	@$(GO) doc ./internal/coherence/spec >/dev/null

# gofmt -l prints unformatted files; any output fails the gate.
fmt:
	@out="$$($(GOFMT) -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt: the following files need formatting:" >&2; \
		echo "$$out" >&2; \
		exit 1; \
	fi

test:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Cross-engine determinism: every workload x protocol under both engines,
# plus golden-trace and figure-table byte-equality (engine_test.go), and
# Verify's liveness check stopping a wedged run at the same cycle on both
# engines (internal/sim/liveness_test.go).
equiv:
	$(GO) test -run 'TestEngine' -count=1 .
	$(GO) test -run 'TestStallTripsOnBothEngines' -count=1 ./internal/sim/

# The steady-state network round trip, the skip engine's stepping loop, its
# run-ahead on L1 hits and the functional warmer must not allocate; the
# benchmark's allocs/op and the tests below gate it. Building a machine
# must stay under 1 MB (cache sets are built on first use), steady
# coherence misses — ping-pong and contended at the home slice — must
# allocate nothing (recycled MSHRs, directory transactions and queue
# arrays; the owner's data handed over), and FSLite's SAM and PAM tables
# must recycle their entries.
allocsmoke:
	$(GO) test -run 'TestSendRecvDoesNotAllocate' -bench 'BenchmarkNetSendRecv' -benchmem -benchtime=1x -count=1 ./internal/network/
	$(GO) test -run 'TestParallelEpochDoesNotAllocate|TestRunAheadDoesNotAllocate|TestWarmingAccessDoesNotAllocate|TestNewMachineAllocates|TestPingPongMissesDoNotAllocate|TestContendedMissesDoNotAllocate|TestMetadataChurnDoesNotAllocate' -count=1 ./internal/sim/

# Sampled-vs-full tolerance gate, cross-worker determinism of the sampled
# estimates, and every benchmark x protocol sampled under Verify (warming
# commits reach the oracle). EXPERIMENTS.md §"Sampled simulation".
samplecheck:
	$(GO) test -run 'TestSampledVsFull|TestSampledDeterministicAcrossWorkers|TestSampledVerify' -count=1 .

# Campaign-journal resume (journal_test.go), then the SIGKILL-a-real-
# campaign test, the watchdog-timeout rerun and memo priming under the race
# detector. A journaled cell is the unit of recovery.
resumecheck:
	$(GO) test -run 'TestJournal|TestLoadJournal' -count=1 .
	$(GO) test -race -run 'TestKillResumeCampaign|TestWatchdog|TestPrimeMemo' -count=1 . ./internal/runner/

# The fsbench goldens pin Fig 14a, Fig 15 and two uGRID cells exactly.
benchsmoke:
	cd bench && $(GO) test ./...

sweep:
	$(GO) run ./cmd/fsexp -all

# Fixed corpus + oracle selfcheck: deterministic, so a failure here is a real
# regression, never flake. EXPERIMENTS.md §"Protocol fuzzing".
fuzzsmoke:
	$(GO) run ./cmd/fsfuzz -seeds 60
	$(GO) run ./cmd/fsfuzz -selfcheck

fuzz:
	$(GO) run ./cmd/fsfuzz -seeds $(SEEDS)

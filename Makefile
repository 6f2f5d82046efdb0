# Tier-1 verification for the fscoherence reproduction.
#
#   make ci      — the full tier-1 gate: formatting, the PROTOCOL.md drift
#                  check (speccheck), vet, build, tests, the race detector
#                  over every package, the cross-engine equivalence suite
#                  (naive and skip must be byte-identical), the
#                  allocation smoke runs, samplecheck, ckptcheck, fuzzsmoke
#                  and benchsmoke.
#   make check   — static gate only: gofmt -l must be clean, PROTOCOL.md's
#                  generated region must match internal/coherence/spec, the
#                  spec package must godoc cleanly, then go vet and the unit
#                  tests.
#   make specdocs — regenerate PROTOCOL.md §§2–4 from internal/coherence/spec
#                  (run after editing the protocol tables).
#   make test    — build + unit tests only (fast inner loop).
#   make race    — race-detector pass only.
#   make equiv   — cross-engine equivalence tests only.
#   make samplecheck — the interval-sampling validation gate: sampled
#                  estimates must land within tolerance of full reference
#                  runs, and must be byte-identical across -j worker counts.
#   make ckptcheck — the crash-resilience gate: kill a run mid-window, resume
#                  from its checkpoint and demand byte-identical final
#                  counters across {skip, the parallel alias} x {flat, mesh};
#                  corrupt / version-skewed / wrong-identity checkpoints must
#                  degrade to cold runs; campaign journals must resume; plus a real
#                  SIGKILL-mid-run smoke test under -race.
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

.PHONY: ci check fmt test race equiv allocsmoke samplecheck ckptcheck benchsmoke sweep fuzz fuzzsmoke specdocs speccheck

ci: check race equiv allocsmoke samplecheck ckptcheck fuzzsmoke benchsmoke

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
# plus golden-trace and figure-table byte-equality (engine_test.go).
equiv:
	$(GO) test -run 'TestEngine' -count=1 .

# The steady-state network round trip, the skip engine's stepping loop, the
# functional warmer and the disabled forensics recorder must not allocate;
# the benchmark's allocs/op and the tests below gate it. Building a machine
# must stay under 1 MB (cache sets are built on first use), and steady
# coherence misses must recycle their MSHRs and directory transactions.
allocsmoke:
	$(GO) test -run 'TestSendRecvDoesNotAllocate' -bench 'BenchmarkNetSendRecv' -benchmem -benchtime=1x -count=1 ./internal/network/
	$(GO) test -run 'TestParallelEpochDoesNotAllocate|TestWarmingAccessDoesNotAllocate|TestNewMachineAllocates|TestPingPongMissesDoNotAllocate' -count=1 ./internal/sim/
	$(GO) test -run 'TestForensicsDisabledDoesNotAllocate' -count=1 ./internal/forensics/

# Sampled-vs-full tolerance gate plus cross-worker determinism of the sampled
# estimates. EXPERIMENTS.md §"Sampled simulation".
samplecheck:
	$(GO) test -run 'TestSampledVsFull|TestSampledDeterministicAcrossWorkers' -count=1 .

# Crash/resume byte-identity, corruption fallback, campaign-journal resume
# (ckptcheck_test.go, journal_test.go, internal/checkpoint), then the
# SIGKILL-a-real-process smoke test under the race detector.
ckptcheck:
	$(GO) test -run 'TestCheckpoint|TestCadence|TestCorrupt|TestMissingResume|TestWrongIdentity|TestWarmState|TestJournal|TestLoadJournal' -count=1 .
	$(GO) test -count=1 ./internal/checkpoint/
	$(GO) test -race -run 'TestKillResumeSmoke|TestSupervised|TestBackoffDeterministic|TestPrimeMemo' -count=1 . ./internal/runner/

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

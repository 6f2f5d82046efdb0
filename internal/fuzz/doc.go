// Package fuzz is the protocol fuzzing and fault-injection harness: it
// generates adversarial multithreaded workloads from a seed, runs them under
// deterministic network fault injection, checks every run against a set of
// protocol oracles, and — on failure — shrinks the workload and fault
// schedule to a small replayable repro.
//
// The harness is the executable counterpart of PROTOCOL.md: the spec defines
// what "correct" means for the MESI+FSDetect+FSLite implementation, and the
// oracles here enforce it on randomly generated traffic.
//
// # Pipeline
//
//	seed -> Generate -> Program -> Execute -> Outcome
//	                        |          |
//	                        |      failure? -> Shrink -> minimal Program (repro)
//	                        +-- JSON round-trip (replay, repro files)
//
// A Program is pure data: per-thread operation lists over a fixed address
// layout, plus a fault plan (seeded delivery jitter and congestion bursts,
// see network.FaultPlan) and optionally a sabotage spec (a deliberately
// injected protocol bug used to validate the oracles). Because programs are
// data, the shrinker can remove threads, operations and faults while
// re-running the predicate, and any failure ships as a small JSON file that
// cmd/fsfuzz -replay reruns exactly.
//
// # Oracles
//
// Every Execute checks, in severity order:
//
//   - liveness: sim.Config.Verify's stall check stops the run with a
//     *sim.StallError when any unfinished core commits nothing for 200k
//     cycles (deadlock and livelock alike), with the per-core commit ages and
//     a dump of in-flight messages plus per-component FSM states; a hard
//     MaxCycles budget backstops it.
//   - golden-memory oracle: every load must return the most recently
//     committed bytes (sim.Config.Verify), byte-granular.
//   - SWMR: at most one E/M copy of any block, never alongside S/PRV copies
//     (sim.Config.Verify, every SWMRPeriod cycles).
//   - data-value equivalence: the final value of every tracked word must
//     equal a sequentially-consistent reference execution replayed from the
//     Program (commutative shared updates and single-writer private stores
//     make the reference interleaving-independent; racy words are excluded).
//   - quiescence agreement: once the system drains, every L1 line must agree
//     with its directory entry (owner exact, sharer sets consistent, no busy
//     transactions); see oracle.go.
//   - engine agreement: the checks above run on the default skip engine,
//     with run-ahead armed. A program that passes them runs again on the
//     naive engine, the reference (MaxCycles set to the skip run's cycles),
//     and its cycles, counters and final word values must equal the skip
//     run's (checkEngines).
//
// Campaign drives many seeds across all three protocols; cmd/fsfuzz is the
// CLI, and `make fuzz` / `make fuzzsmoke` are the entry points (EXPERIMENTS.md
// documents the workflow, including replaying a repro under -trace).
package fuzz

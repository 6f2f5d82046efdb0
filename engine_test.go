package fscoherence

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"fscoherence/internal/obs"
	"fscoherence/internal/workload"
)

// engineEquivalenceScale keeps the full workload × protocol × engine matrix
// affordable; the naive engine pays for every simulated cycle, so this is the
// most expensive test in the suite at larger scales.
const engineEquivalenceScale = 0.2

// engineShapes are the machine shapes every engine must agree on: the
// Table II machine, out-of-order cores, a private L2 and a non-inclusive
// LLC. The last two shrink the L1 to 4 KB; with the default 32 KB L1 no
// workload evicts at test scale, so neither shape would change a counter.
var engineShapes = []struct {
	name string
	opt  Options
}{
	{"Table II", Options{}},
	{"OOO", Options{OOO: true}},
	{"L2 256KB", Options{L1KB: 4, L2KB: 256}},
	{"non-inclusive LLC", Options{L1KB: 4, NonInclusiveLLC: true}},
}

// TestEngineEquivalence is the tentpole acceptance test: for every registered
// workload under all three protocol modes and every machine shape, the
// quiescence-skipping engine and the naive cycle-stepped loop must produce
// identical cycle counts, identical counter snapshots, and identical
// detection lists. Skipping is a pure wall-clock
// optimization; any divergence here is a missed or late wake-up.
func TestEngineEquivalence(t *testing.T) {
	for _, bench := range workload.Names() {
		for _, mode := range []Protocol{Baseline, FSDetect, FSLite} {
			bench, mode := bench, mode
			t.Run(fmt.Sprintf("%s-%v", bench, mode), func(t *testing.T) {
				t.Parallel()
				for _, shape := range engineShapes {
					var naive *Result
					for _, engine := range []string{"naive", "skip"} {
						opt := shape.opt
						opt.Protocol, opt.Scale, opt.Engine = mode, engineEquivalenceScale, engine
						got, err := Run(bench, opt)
						if err != nil {
							t.Fatalf("%s %s: %v", shape.name, engine, err)
						}
						if naive == nil {
							naive = got
							continue
						}
						if naive.Cycles != got.Cycles {
							t.Errorf("%s: cycles diverge: naive=%d %s=%d", shape.name, naive.Cycles, engine, got.Cycles)
						}
						ns, gs := naive.Stats.Snapshot(), got.Stats.Snapshot()
						if !reflect.DeepEqual(ns, gs) {
							for k, v := range ns {
								if gs[k] != v {
									t.Errorf("%s: counter %s diverges: naive=%d %s=%d", shape.name, k, v, engine, gs[k])
								}
							}
							for k, v := range gs {
								if _, ok := ns[k]; !ok {
									t.Errorf("%s: counter %s only under %s (=%d)", shape.name, k, engine, v)
								}
							}
						}
						if !reflect.DeepEqual(naive.Detections, got.Detections) {
							t.Errorf("%s: detections diverge:\nnaive: %v\n%s: %v", shape.name, naive.Detections, engine, got.Detections)
						}
						if !reflect.DeepEqual(naive.Contended, got.Contended) {
							t.Errorf("%s: contended lists diverge:\nnaive: %v\n%s: %v", shape.name, naive.Contended, engine, got.Contended)
						}
					}
				}
			})
		}
	}
}

// TestEngineEquivalenceBigMachine is the big-machine acceptance matrix:
// {naive, skip} × {flat, ring, mesh} × {8, 64, 256} cores on the scalable
// uGRID workload under FSLite. Every cell must produce identical cycle
// counts, byte-identical counter snapshots and identical detection lists —
// the NoC models' deterministic link contention is on trial here. (`make equiv` picks
// this up via the TestEngine prefix.)
func TestEngineEquivalenceBigMachine(t *testing.T) {
	const scale = 0.1
	for _, cores := range []int{8, 64, 256} {
		for _, topo := range []string{"flat", "ring", "mesh"} {
			cores, topo := cores, topo
			t.Run(fmt.Sprintf("%s-%dc", topo, cores), func(t *testing.T) {
				t.Parallel()
				var ref *Result
				for _, engine := range []string{"naive", "skip"} {
					got, err := Run("uGRID", Options{
						Protocol: FSLite, Scale: scale, Engine: engine,
						Cores: cores, Topology: topo,
					})
					if err != nil {
						t.Fatalf("%s: %v", engine, err)
					}
					if ref == nil {
						ref = got
						continue
					}
					if got.Cycles != ref.Cycles {
						t.Errorf("%s: cycles diverge: naive=%d %s=%d", engine, ref.Cycles, engine, got.Cycles)
					}
					rs, gs := ref.Stats.Snapshot(), got.Stats.Snapshot()
					if !reflect.DeepEqual(rs, gs) {
						for k, v := range rs {
							if gs[k] != v {
								t.Errorf("%s: counter %s diverges: naive=%d got=%d", engine, k, v, gs[k])
							}
						}
						for k, v := range gs {
							if _, ok := rs[k]; !ok {
								t.Errorf("%s: counter %s only under %s (=%d)", engine, k, engine, v)
							}
						}
					}
					if !reflect.DeepEqual(got.Detections, ref.Detections) {
						t.Errorf("%s: detections diverge:\nnaive: %v\n%s: %v", engine, ref.Detections, engine, got.Detections)
					}
				}
			})
		}
	}
}

// TestEngineParallelShardInvariance checks that Shards, which the removed
// parallel engine read and which is now ignored, changes nothing: under the
// "parallel" alias every shard count reproduces the skip run on the 64-core
// mesh.
func TestEngineParallelShardInvariance(t *testing.T) {
	ref, err := Run("uGRID", Options{Protocol: FSLite, Scale: 0.1, Cores: 64, Topology: "mesh"})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 3, 5, 8, 16} {
		got, err := Run("uGRID", Options{
			Protocol: FSLite, Scale: 0.1, Cores: 64, Topology: "mesh",
			Engine: "parallel", Shards: shards,
		})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if got.Cycles != ref.Cycles {
			t.Errorf("shards=%d: cycles diverge: skip=%d parallel=%d", shards, ref.Cycles, got.Cycles)
		}
		if !reflect.DeepEqual(got.Stats.Snapshot(), ref.Stats.Snapshot()) {
			t.Errorf("shards=%d: counter snapshots diverge", shards)
		}
	}
}

// TestEngineParallelFallback pins the "parallel" engine name, kept as an
// alias of skip for the removed parallel engine: a 64-core mesh run with an
// explicit shard count is the skip run, with exactly one warning, and
// sampling, which needs the skip engine, runs sampled under the alias.
func TestEngineParallelFallback(t *testing.T) {
	machine := Options{Protocol: FSLite, Scale: 0.1, Cores: 64, Topology: "mesh"}
	for _, sampled := range []string{"", "1k:3k"} {
		opt := machine
		opt.Sample = sampled
		ref, err := Run("uGRID", opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.Engine, opt.Shards = "parallel", 4
		got, err := Run("uGRID", opt)
		if err != nil {
			t.Fatalf("sample %q: %v", sampled, err)
		}
		if len(got.Warnings) != 1 {
			t.Errorf("sample %q: warnings %q, want exactly one", sampled, got.Warnings)
		}
		if (got.Sampled != nil) != (sampled != "") {
			t.Errorf("sample %q: sampled report present = %v", sampled, got.Sampled != nil)
		}
		if got.Cycles != ref.Cycles {
			t.Errorf("sample %q: cycles diverge: skip=%d parallel=%d", sampled, ref.Cycles, got.Cycles)
		}
		if !reflect.DeepEqual(got.Stats.Snapshot(), ref.Stats.Snapshot()) {
			t.Errorf("sample %q: counter snapshots diverge", sampled)
		}
		if !reflect.DeepEqual(got.Detections, ref.Detections) {
			t.Errorf("sample %q: detections diverge:\nskip: %v\nparallel: %v", sampled, ref.Detections, got.Detections)
		}
	}
}

// TestEngineEquivalenceVerified reruns one false-sharing cell per protocol
// with the oracle and SWMR scanner enabled under both engines: the per-cycle
// invariant machinery must observe the same architectural history.
func TestEngineEquivalenceVerified(t *testing.T) {
	for _, mode := range []Protocol{Baseline, FSDetect, FSLite} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			naive, err := Run("LR", Options{Protocol: mode, Scale: engineEquivalenceScale, Verify: true, Engine: "naive"})
			if err != nil {
				t.Fatal(err)
			}
			skip, err := Run("LR", Options{Protocol: mode, Scale: engineEquivalenceScale, Verify: true, Engine: "skip"})
			if err != nil {
				t.Fatal(err)
			}
			if len(naive.Violations) != 0 || len(skip.Violations) != 0 {
				t.Fatalf("violations: naive=%v skip=%v", naive.Violations, skip.Violations)
			}
			if naive.Cycles != skip.Cycles {
				t.Errorf("cycles diverge: naive=%d skip=%d", naive.Cycles, skip.Cycles)
			}
			if !reflect.DeepEqual(naive.Stats.Snapshot(), skip.Stats.Snapshot()) {
				t.Error("counter snapshots diverge under verification")
			}
		})
	}
}

// TestEngineDispatchEquivalence gates `make equiv` on the spec-driven
// dispatch layer: on a read-involved false-sharing workload (uRW under
// FSLite, whose privatization and merge paths exercise most of the spec
// tables), both engines on each topology must route each coherence
// message through the table-driven interpreter without tripping an
// illegal-pair panic or the oracle, and must produce results byte-identical
// to the naive engine on the same topology without verification attached —
// same cycle count, same counter snapshot, same detection and contention
// lists. The naive cells therefore check that the oracle and SWMR scanner
// observe dispatch without steering it.
func TestEngineDispatchEquivalence(t *testing.T) {
	for _, engine := range []string{"naive", "skip"} {
		for _, topo := range []string{"flat", "mesh"} {
			engine, topo := engine, topo
			t.Run(fmt.Sprintf("%s-%s-%v", engine, topo, FSLite), func(t *testing.T) {
				t.Parallel()
				ref, err := Run("uRW", Options{Protocol: FSLite, Scale: engineEquivalenceScale, Engine: "naive", Topology: topo})
				if err != nil {
					t.Fatal(err)
				}
				got, err := Run("uRW", Options{Protocol: FSLite, Scale: engineEquivalenceScale, Engine: engine, Topology: topo, Verify: true})
				if err != nil {
					t.Fatal(err)
				}
				if len(got.Violations) != 0 {
					t.Fatalf("oracle violations: %v", got.Violations)
				}
				if ref.Cycles != got.Cycles {
					t.Errorf("cycles diverge: naive=%d %s=%d", ref.Cycles, engine, got.Cycles)
				}
				rs, gs := ref.Stats.Snapshot(), got.Stats.Snapshot()
				if !reflect.DeepEqual(rs, gs) {
					for k, v := range rs {
						if gs[k] != v {
							t.Errorf("counter %s diverges: naive=%d %s=%d", k, v, engine, gs[k])
						}
					}
					for k, v := range gs {
						if _, ok := rs[k]; !ok {
							t.Errorf("counter %s only under %s (=%d)", k, engine, v)
						}
					}
				}
				if !reflect.DeepEqual(ref.Detections, got.Detections) {
					t.Errorf("detections diverge:\nnaive: %v\n%s: %v", ref.Detections, engine, got.Detections)
				}
				if !reflect.DeepEqual(ref.Contended, got.Contended) {
					t.Errorf("contended lists diverge:\nnaive: %v\n%s: %v", ref.Contended, engine, got.Contended)
				}
			})
		}
	}
}

// traceUnder runs the golden lock workload (LR under FSLite) with the full
// observability attachment on the given engine and returns the exported
// Chrome trace bytes.
func traceUnder(t *testing.T, engine string) []byte {
	t.Helper()
	o := obs.New(obs.Config{})
	if _, err := Run("LR", Options{Protocol: FSLite, Scale: 0.5, Obs: o, Engine: engine}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, o.Tracer.Events()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEngineGoldenTraceIdentical pins the strongest equivalence property:
// with event tracing enabled (which forces the skipping engine to honor every
// cycle at which any event fires), the exported trace of the golden lock run
// is byte-identical between engines — same events, same cycle stamps, same
// order.
func TestEngineGoldenTraceIdentical(t *testing.T) {
	naive := traceUnder(t, "naive")
	skip := traceUnder(t, "skip")
	if !bytes.Equal(naive, skip) {
		t.Fatalf("golden trace diverges between engines: naive=%d bytes, skip=%d bytes", len(naive), len(skip))
	}
}

// TestEngineFigTablesIdentical renders one full figure table under each
// engine (via the Runner-level engine default, as fsexp -engine does) and
// compares the rendered output byte-for-byte.
func TestEngineFigTablesIdentical(t *testing.T) {
	render := func(engine string) string {
		r := NewRunner(0)
		if err := r.SetDefaults(Options{Engine: engine}); err != nil {
			t.Fatal(err)
		}
		return Fig14Speedup(r, engineEquivalenceScale).String() +
			fig13.build(r, engineEquivalenceScale).String()
	}
	naive := render("naive")
	skip := render("skip")
	if naive != skip {
		t.Fatalf("figure tables diverge between engines:\n--- naive ---\n%s\n--- skip ---\n%s", naive, skip)
	}
}

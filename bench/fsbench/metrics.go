package main

// metricSpec declares one metric. Bound, for end-to-end metrics, is the share
// of the baseline median by which the metric may worsen before a change counts
// as a regression.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndSpecs are the metrics a user of the simulator sees, measured with
// tracing off. The bounds are set from the spread of repeated invocations on
// the reference host (README.md).
var endToEndSpecs = []metricSpec{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "accesses_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.05},
	// Any rise is a regression.
	{Name: "failed_frac", Unit: "frac", Better: "lower"},
}

// profileLayers are the layers CPU-profile samples are attributed to (see
// layerOf); samples with no simulator frame go to bgLayer.
var profileLayers = []string{
	"sim", "cpu", "coherence.l1", "coherence.dir", "coherence.warmer", "core",
	"network", "memsys", "stats", "workload", "runner", "energy",
}

const bgLayer = "runtime.bg"

// perLayerSpecs are the traced rep's metrics.
var perLayerSpecs = func() []metricSpec {
	var out []metricSpec
	for _, l := range profileLayers {
		out = append(out, metricSpec{Name: l + ".self_s", Unit: "s", Better: "lower"})
	}
	for _, s := range []struct{ name, unit, better string }{
		{"runtime.bg_s", "s", "lower"},
		{"runtime.gc_s", "s", "lower"},
		{"runtime.coro_s", "s", "lower"},

		{"workload.build_s", "s", "lower"},
		{"sim.new_s", "s", "lower"},
		{"sim.run_s", "s", "lower"},
		{"energy.compute_s", "s", "lower"},
		{"sim.detailed_s", "s", "lower"},
		{"sim.warming_s", "s", "lower"},
		{"sample.warm_accesses_per_s", "1/s", "higher"},
		{"sample.detailed_accesses_per_s", "1/s", "higher"},
		{"sample.warm_vs_detailed", "x", "higher"},
		{"host.cpu_util", "s/s", "higher"},

		{"cpu.ops", "count", "lower"},
		{"cpu.stall_cycles", "count", "lower"},
		{"l1d.accesses", "count", "lower"},
		{"l1d.misses", "count", "lower"},
		{"dir.invalidations", "count", "lower"},
		{"dir.interventions", "count", "lower"},
		{"llc.misses", "count", "lower"},
		{"net.messages", "count", "lower"},
		{"net.hops", "count", "lower"},
		{"net.link_wait", "count", "lower"},
		{"pam.updates", "count", "lower"},
		{"sam.lookups", "count", "lower"},
		{"fs.privatizations", "count", "lower"},
		{"fs.terminations", "count", "lower"},
		{"sim.cycles", "count", "lower"},
		{"sample.windows", "count", "lower"},
		{"sample.detailed_accesses", "count", "lower"},

		{"sim.ns_per_cycle", "ns", "lower"},
		{"coherence.ns_per_access", "ns", "lower"},
		{"network.ns_per_message", "ns", "lower"},
		{"core.ns_per_pam_update", "ns", "lower"},
		{"alloc_bytes_per_access", "B", "lower"},
		{"trace_overhead", "frac", "lower"},
	} {
		out = append(out, metricSpec{Name: s.name, Unit: s.unit, Better: s.better})
	}
	return out
}()

// notInResultLine names the metrics kept out of the result line and
// BENCHMARK.json: failed_frac is 0 on a passing run (failures reach the result
// line as its failed count), and each of the times reads exactly 0 s on every
// run of some workload — the warmer runs only under sampling, the traced path
// has no runner frames, and energy.Compute takes microseconds. The results
// file and the printed table keep them all.
var notInResultLine = map[string]bool{
	"failed_frac":             true,
	"coherence.warmer.self_s": true,
	"runner.self_s":           true,
	"energy.self_s":           true,
	"sim.warming_s":           true,
}

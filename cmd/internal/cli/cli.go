// Package cli holds the flags that fsrun, fsexp and fsreport share, maps
// them onto one fscoherence.Options, and writes the -trace and -metrics
// files for every command (fsfuzz included). Whether the resulting Options
// can run is decided by Options.Validate alone; no command checks a
// combination by hand.
package cli

import (
	"flag"
	"fmt"
	"io"
	"os"

	"fscoherence"
	"fscoherence/internal/obs"
	"fscoherence/internal/sample"
)

// Group selects shared flags to register.
type Group uint

const (
	Scale      Group = 1 << iota // -scale
	Variant                      // -variant
	Machine                      // -engine -cores -topology
	Sample                       // -sample
	Trace                        // -trace -metrics -trace-filter
	Checkpoint                   // -checkpoint-every
)

// Flags holds the values of the registered flags; flags of unregistered
// groups keep their zero values.
type Flags struct {
	Scale            float64
	Variant          string
	Engine, Topology string
	Cores            int
	Sample           string
	Trace, Metrics   string
	Filter           string
	CheckpointEvery  string
}

// Register adds the selected groups to the default FlagSet. Call before
// flag.Parse.
func Register(groups Group) *Flags {
	f := &Flags{}
	if groups&Scale != 0 {
		flag.Float64Var(&f.Scale, "scale", 1.0, "workload size multiplier")
	}
	if groups&Variant != 0 {
		flag.StringVar(&f.Variant, "variant", "default", "data layout: default | padded (or manual) | huron")
	}
	if groups&Machine != 0 {
		flag.StringVar(&f.Engine, "engine", "skip", "simulation engine: skip (quiescence-skipping, default) | naive (cycle-stepped reference); parallel is accepted and runs skip")
		flag.IntVar(&f.Cores, "cores", 0, "scale the machine to this many cores (0 = Table II 8-core default; up to 256)")
		flag.StringVar(&f.Topology, "topology", "", "interconnect: flat (default) | ring | mesh")
	}
	if groups&Sample != 0 {
		flag.StringVar(&f.Sample, "sample", "", "interval sampling spec detailed:warming in committed accesses (e.g. 50k:950k); timing metrics become estimates with 95% CIs")
	}
	if groups&Trace != 0 {
		flag.StringVar(&f.Trace, "trace", "", "write the traced run's Chrome trace-event JSON to this file (open in Perfetto)")
		flag.StringVar(&f.Metrics, "metrics", "", "write the traced run's interval metrics CSV to this file")
		flag.StringVar(&f.Filter, "trace-filter", "", "restrict traced events: addr=0x...,core=N,class=net|l1|dir|detect|prv|commit|oracle")
	}
	if groups&Checkpoint != 0 {
		flag.StringVar(&f.CheckpointEvery, "checkpoint-every", "", "checkpoint cadence in committed L1D accesses (e.g. 1m, 500k; default 1m when checkpointing)")
	}
	return f
}

// Options maps the flags onto the Options fields they set.
func (f *Flags) Options() (fscoherence.Options, error) {
	v, err := fscoherence.ParseVariant(f.Variant)
	if err != nil {
		return fscoherence.Options{}, err
	}
	return fscoherence.Options{
		Variant: v, Scale: f.Scale, Sample: f.Sample,
		Engine: f.Engine, Cores: f.Cores, Topology: f.Topology,
	}, nil
}

// Traced reports whether -trace or -metrics asks for an export.
func (f *Flags) Traced() bool { return f.Trace != "" || f.Metrics != "" }

// Obs returns a new observability attachment recording the events
// -trace-filter selects (every event when it is empty).
func (f *Flags) Obs() (*obs.Obs, error) {
	filter, err := obs.ParseFilter(f.Filter, fscoherence.DefaultBlockSize())
	if err != nil {
		return nil, err
	}
	return obs.New(obs.Config{Filter: filter}), nil
}

// CheckpointInterval parses -checkpoint-every (0 when it is unset).
func (f *Flags) CheckpointInterval() (uint64, error) {
	if f.CheckpointEvery == "" {
		return 0, nil
	}
	n, err := sample.ParseCount(f.CheckpointEvery)
	if err != nil {
		return 0, fmt.Errorf("-checkpoint-every: %w", err)
	}
	return n, nil
}

// Export writes o's event trace as Chrome trace-event JSON to tracePath and
// its interval metrics as CSV to metricsPath, skipping an empty path, and
// reports each file on stderr. A nil o writes nothing.
func Export(o *obs.Obs, tracePath, metricsPath string) error {
	if o == nil {
		return nil
	}
	if tracePath != "" {
		if err := writeFile(tracePath, func(w io.Writer) error { return obs.WriteChromeTrace(w, o.Tracer.Events()) }); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "[trace: %d events -> %s (%d seen, %d dropped); open in Perfetto]\n",
			len(o.Tracer.Events()), tracePath, o.Tracer.Total(), o.Tracer.Dropped())
	}
	if metricsPath != "" {
		if err := writeFile(metricsPath, o.Metrics.WriteCSV); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "[metrics: %d samples, %d histograms -> %s]\n",
			len(o.Metrics.Samples()), len(o.Metrics.Histograms()), metricsPath)
	}
	return nil
}

// writeFile creates path, fills it with write and closes it, returning the
// first error.
func writeFile(path string, write func(io.Writer) error) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(fh)
	if cerr := fh.Close(); err == nil {
		err = cerr
	}
	return err
}

package fscoherence

import (
	"bytes"
	"encoding/json"
	"testing"

	"fscoherence/internal/obs"
)

// chromeEvent mirrors the fields of the Chrome trace-event format a viewer
// requires; unknown fields are rejected so schema drift is caught.
type chromeEvent struct {
	Name string          `json:"name"`
	Ph   string          `json:"ph"`
	Ts   uint64          `json:"ts"`
	Dur  uint64          `json:"dur"`
	Pid  int             `json:"pid"`
	Tid  int             `json:"tid"`
	S    string          `json:"s"`
	Cat  string          `json:"cat"`
	Args json.RawMessage `json:"args"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// traceLR runs LR under FSLite on a jobs-wide engine (alongside the two
// other protocol cells, as fsrun -compare would) with a fresh observability
// attachment, and returns the exported Chrome trace JSON.
func traceLR(t *testing.T, jobs int) []byte {
	t.Helper()
	o := obs.New(obs.Config{})
	eng := NewRunner(jobs)
	eng.Submit("LR", Options{Protocol: Baseline, Scale: 0.5})
	eng.Submit("LR", Options{Protocol: FSDetect, Scale: 0.5})
	f := eng.Submit("LR", Options{Protocol: FSLite, Scale: 0.5, Obs: o})
	if _, err := f.Result(); err != nil {
		t.Fatal(err)
	}
	eng.Wait()
	if o.Tracer.Dropped() > 0 {
		t.Logf("ring buffer dropped %d events (capacity %d)", o.Tracer.Dropped(), obs.DefaultTraceCapacity)
	}
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, o.Tracer.Events()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestChromeTraceAcceptance is the PR's acceptance criterion: tracing LR
// under FSLite emits valid Chrome trace-event JSON (parseable, with the
// ph/ts/pid/tid fields a viewer requires) that contains at least one PRV
// episode begin/terminate pair, and the bytes are identical whether the
// sweep ran on 1 or 8 workers.
func TestChromeTraceAcceptance(t *testing.T) {
	blob := traceLR(t, 1)

	var tr chromeTrace
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&tr); err != nil {
		t.Fatalf("trace is not valid Chrome trace JSON: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatal("trace contains no events")
	}

	begins := map[string]bool{} // prv.begin addresses
	pairs := 0
	for i, e := range tr.TraceEvents {
		switch e.Ph {
		case "M":
			if e.Name != "process_name" && e.Name != "thread_name" {
				t.Errorf("event %d: unexpected metadata %q", i, e.Name)
			}
			continue
		case "i":
			if e.S != "t" {
				t.Errorf("event %d (%s): instant scope %q, want \"t\"", i, e.Name, e.S)
			}
		case "X":
		default:
			t.Errorf("event %d (%s): unexpected phase %q", i, e.Name, e.Ph)
		}
		if e.Name == "" {
			t.Errorf("event %d: empty name", i)
		}
		if e.Pid < 0 || e.Pid > 2 {
			t.Errorf("event %d (%s): pid %d outside the cores/llc/sim processes", i, e.Name, e.Pid)
		}
		if e.Tid < 0 {
			t.Errorf("event %d (%s): negative tid %d", i, e.Name, e.Tid)
		}

		var args map[string]any
		if err := json.Unmarshal(e.Args, &args); err != nil {
			t.Fatalf("event %d (%s): bad args: %v", i, e.Name, err)
		}
		addr, _ := args["addr"].(string)
		switch e.Name {
		case "prv.begin":
			begins[addr] = true
		case "prv.terminate":
			if begins[addr] {
				pairs++
			}
		}
	}
	if pairs == 0 {
		t.Errorf("trace has no PRV begin/terminate pair (begins seen: %d)", len(begins))
	}

	if blob8 := traceLR(t, 8); !bytes.Equal(blob, blob8) {
		t.Error("trace bytes differ between -j 1 and -j 8 sweeps")
	}
}

// traceMesh runs RC under FSLite on a 16-core mesh machine with the given
// engine and renders the tracer's event stream in the golden single-line
// format.
func traceMesh(t *testing.T, engine string) ([]obs.Event, string) {
	t.Helper()
	o := obs.New(obs.Config{})
	_, err := Run("RC", Options{
		Protocol: FSLite, Scale: 0.2, Engine: engine,
		Cores: 16, Topology: "mesh", Obs: o,
	})
	if err != nil {
		t.Fatal(err)
	}
	events := o.Tracer.Events()
	var b bytes.Buffer
	for _, e := range events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return events, b.String()
}

// TestMeshTraceEngineAttribution is the golden-trace attribution check on a
// big-machine configuration: on a 16-core mesh the tracer must produce a
// byte-identical event stream under both engines (skip and the cycle-stepped
// naive reference), and every net event's (core, slice) track assignment
// must agree with the src/dst node pair it carries.
func TestMeshTraceEngineAttribution(t *testing.T) {
	events, golden := traceMesh(t, "skip")
	if len(events) == 0 {
		t.Fatal("mesh trace contains no events")
	}
	if _, g := traceMesh(t, "naive"); g != golden {
		t.Error("naive engine trace differs from the skip golden trace")
	}

	// Attribution: a net.send is tracked at its source node, a net.recv at
	// its destination; L1 nodes 0..cores-1 map to core tracks, LLC nodes
	// cores..cores+slices-1 to slice tracks.
	const cores = 16
	coreTracked, sliceTracked := 0, 0
	for i, e := range events {
		if e.Kind != obs.KindNetSend && e.Kind != obs.KindNetRecv {
			continue
		}
		src, dst := e.SrcDst()
		node := src
		if e.Kind == obs.KindNetRecv {
			node = dst
		}
		if node < cores {
			coreTracked++
			if int(e.Core) != node || e.Slice != -1 {
				t.Fatalf("event %d (%s): node %d attributed to core=%d slice=%d, want core=%d slice=-1",
					i, e.Kind, node, e.Core, e.Slice, node)
			}
		} else {
			sliceTracked++
			if int(e.Slice) != node-cores || e.Core != -1 {
				t.Fatalf("event %d (%s): node %d attributed to core=%d slice=%d, want core=-1 slice=%d",
					i, e.Kind, node, e.Core, e.Slice, node-cores)
			}
		}
	}
	if coreTracked == 0 || sliceTracked == 0 {
		t.Errorf("attribution check exercised %d core-tracked and %d slice-tracked net events, want both > 0",
			coreTracked, sliceTracked)
	}
}

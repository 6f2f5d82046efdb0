package fscoherence

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"fscoherence/internal/forensics"
	"fscoherence/internal/obs"
)

// matrixCell is one point of the Options matrix.
type matrixCell Options

func (c matrixCell) String() string {
	return fmt.Sprintf("engine=%s topo=%s sample=%q verify=%v obs=%v forensics=%v l2=%d ooo=%v",
		c.Engine, c.Topology, c.Sample, c.Verify, c.Obs != nil, c.Forensics != nil, c.L2KB, c.OOO)
}

// run executes the cell on a small workload, turning a panic into an error
// so one bad cell names itself instead of killing the test binary.
func (c matrixCell) run() (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return Run("RC", Options(c))
}

// TestOptionsMatrix walks engine × topology × sample × Verify × Obs ×
// Forensics × L2 × OOO. Every cell must return a Result or an error wrapping
// ErrUnsupported, never panic; exactly the combinations the rules below spell
// out are rejected; and whenever the engine that runs differs from the one
// requested, Result.Warnings says so. The expectations are written here by
// hand, not read from the compatibility table.
func TestOptionsMatrix(t *testing.T) {
	// Pinned rows.
	pinned := []struct {
		cell   matrixCell
		reject bool
		warn   bool
	}{
		{matrixCell{Sample: "1k:3k", OOO: true}, true, false},
		{matrixCell{Sample: "1k:3k", Engine: "parallel"}, false, true},
		{matrixCell{Engine: "parallel", Obs: obs.New(obs.Config{})}, false, true},
	}
	for _, p := range pinned {
		p.cell.Protocol, p.cell.Scale = FSLite, 0.05
		res, err := p.cell.run()
		switch {
		case p.reject && !errors.Is(err, ErrUnsupported):
			t.Errorf("pinned %v: error %v, want one wrapping ErrUnsupported", p.cell, err)
		case !p.reject && err != nil:
			t.Errorf("pinned %v: %v", p.cell, err)
		case !p.reject && p.warn && len(res.Warnings) == 0:
			t.Errorf("pinned %v: no warning for the skip fallback", p.cell)
		}
	}

	cells := 0
	for _, engine := range []string{"skip", "naive", "parallel"} {
		for _, topo := range []string{"flat", "mesh"} {
			for _, spec := range []string{"", "1k:3k"} {
				for mask := 0; mask < 1<<5; mask++ {
					on := func(bit int) bool { return mask&(1<<bit) != 0 }
					c := matrixCell{Protocol: FSLite, Scale: 0.05, Engine: engine, Topology: topo, Sample: spec,
						Verify: on(0), OOO: on(4)}
					if on(1) {
						c.Obs = obs.New(obs.Config{})
					}
					if on(2) {
						c.Forensics = forensics.New()
					}
					if on(3) {
						c.L2KB = 256
					}
					checkMatrixCell(t, c)
					cells++
				}
			}
		}
	}
	if cells != 384 {
		t.Fatalf("walked %d cells, want 384", cells)
	}
}

// checkMatrixCell runs one cell and checks it against the hand-written rules.
func checkMatrixCell(t *testing.T, c matrixCell) {
	t.Helper()
	attached := c.Verify || c.Obs != nil || c.Forensics != nil
	shaped := c.OOO || c.L2KB > 0 // machine shapes the warmer cannot model
	// "parallel" names the removed parallel engine and always runs skip.
	reject := c.Sample != "" && (c.Engine == "naive" || shaped || attached)
	fallback := !reject && c.Engine == "parallel"

	res, err := c.run()
	if verr := Options(c).Validate(); (verr == nil) != (err == nil) {
		t.Errorf("%v: Validate says %v, the run says %v", c, verr, err)
	}
	switch {
	case err != nil && !errors.Is(err, ErrUnsupported):
		t.Errorf("%v: error %v does not wrap ErrUnsupported", c, err)
	case reject && err == nil:
		t.Errorf("%v: ran, want an ErrUnsupported rejection", c)
	case !reject && err != nil:
		t.Errorf("%v: %v", c, err)
	case err != nil:
	case fallback && (len(res.Warnings) != 1 || !strings.Contains(res.Warnings[0], "skip engine")):
		t.Errorf("%v: engine fell back to skip without exactly one warning (warnings %q)", c, res.Warnings)
	case !fallback && len(res.Warnings) > 0:
		t.Errorf("%v: unexpected warnings %q", c, res.Warnings)
	case len(res.Violations) > 0:
		t.Errorf("%v: oracle violations %v", c, res.Violations)
	case (c.Sample != "") != (res.Sampled != nil):
		t.Errorf("%v: sampled report present = %v", c, res.Sampled != nil)
	}
}

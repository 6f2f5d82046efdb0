package runner

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSeedDeterministicPerKey(t *testing.T) {
	type key struct {
		Bench string
		N     int
	}
	a := Seed(key{"RC", 1})
	b := Seed(key{"RC", 1})
	if a != b {
		t.Fatalf("same key, different seeds: %d vs %d", a, b)
	}
	if Seed(key{"RC", 2}) == a || Seed(key{"LT", 1}) == a {
		t.Fatal("distinct keys collided on the same seed")
	}
}

func TestTaskReceivesKeySeed(t *testing.T) {
	e := New(2)
	var got uint64
	h := e.Do("k", func(seed uint64) (any, error) {
		got = seed
		return nil, nil
	})
	if _, err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	if got != Seed("k") {
		t.Fatalf("task saw seed %d, want %d", got, Seed("k"))
	}
}

func TestMemoizationRunsTaskOnce(t *testing.T) {
	e := New(4)
	var runs atomic.Int32
	task := func(uint64) (any, error) {
		runs.Add(1)
		return 42, nil
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := e.Do("same", task).Wait()
			if err != nil || v.(int) != 42 {
				t.Errorf("got %v, %v", v, err)
			}
		}()
	}
	wg.Wait()
	e.Wait()
	if n := runs.Load(); n != 1 {
		t.Fatalf("task ran %d times, want 1", n)
	}
	rep := e.Report()
	if rep.Executed != 1 || rep.Submitted != 16 || rep.MemoHits != 15 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestPanicCapturedAsCellError(t *testing.T) {
	e := New(2)
	_, err := e.Do("boom", func(uint64) (any, error) {
		panic("exploded config")
	}).Wait()
	if err == nil || !strings.Contains(err.Error(), "exploded config") {
		t.Fatalf("panic not captured: %v", err)
	}
	// The engine must stay usable after a panic.
	v, err := e.Do("ok", func(uint64) (any, error) { return "fine", nil }).Wait()
	if err != nil || v.(string) != "fine" {
		t.Fatalf("engine wedged after panic: %v, %v", v, err)
	}
	if rep := e.Report(); rep.Errors != 1 {
		t.Fatalf("errors = %d, want 1", rep.Errors)
	}
}

func TestErrorPropagation(t *testing.T) {
	e := New(1)
	want := errors.New("bad cell")
	if _, err := e.Do(1, func(uint64) (any, error) { return nil, want }).Wait(); !errors.Is(err, want) {
		t.Fatalf("err = %v", err)
	}
}

func TestBoundedConcurrency(t *testing.T) {
	const workers, tasks = 3, 24
	e := New(workers)
	var inFlight, peak atomic.Int32
	gate := make(chan struct{})
	for i := 0; i < tasks; i++ {
		e.Do(i, func(uint64) (any, error) {
			n := inFlight.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			<-gate
			inFlight.Add(-1)
			return nil, nil
		})
	}
	close(gate)
	e.Wait()
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent tasks, bound is %d", p, workers)
	}
	if rep := e.Report(); rep.Executed != tasks {
		t.Fatalf("executed %d, want %d", rep.Executed, tasks)
	}
}

func TestSerialEngineRunsInSubmissionOrder(t *testing.T) {
	e := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Do(i, func(uint64) (any, error) {
			order = append(order, i) // safe: serial engine runs inline
			return nil, nil
		})
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order = %v", order)
		}
	}
}

func TestProgressCallbackFiresPerExecutedCell(t *testing.T) {
	e := New(2)
	var mu sync.Mutex
	seen := map[any]int{}
	e.SetProgress(func(c Cell) {
		mu.Lock()
		seen[c.Key]++
		mu.Unlock()
	})
	for i := 0; i < 4; i++ {
		e.Do("dup", func(uint64) (any, error) { return nil, nil })
		e.Do(i, func(uint64) (any, error) { return nil, nil })
	}
	e.Wait()
	mu.Lock()
	defer mu.Unlock()
	if seen["dup"] != 1 {
		t.Fatalf("memoized cell fired progress %d times", seen["dup"])
	}
	if len(seen) != 5 {
		t.Fatalf("progress saw %d cells, want 5", len(seen))
	}
}

// TestWaitFollowsProgressCallback: a handle resolves only after its cell's
// progress callback has returned, so a caller that installs a new callback
// once Wait returns never hears about the earlier cell.
func TestWaitFollowsProgressCallback(t *testing.T) {
	e := New(2)
	entered, release := make(chan struct{}), make(chan struct{})
	e.SetProgress(func(Cell) {
		close(entered)
		<-release
	})
	h := e.Do("cell", func(uint64) (any, error) { return nil, nil })
	waited := make(chan struct{})
	go func() {
		h.Wait()
		close(waited)
	}()
	<-entered
	select {
	case <-waited:
		t.Fatal("Wait returned while the progress callback was still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case <-waited:
	case <-time.After(10 * time.Second):
		t.Fatal("Wait did not return once the progress callback finished")
	}
	e.Wait()
}

// TestPrimeMemo: primed cells are served from the memo without executing, and
// the report distinguishes them.
func TestPrimeMemo(t *testing.T) {
	e := New(2)
	if !e.Prime("warm", "cached-value") {
		t.Fatal("Prime returned false for a fresh key")
	}
	if e.Prime("warm", "other") {
		t.Fatal("Prime must refuse an existing key")
	}
	ran := false
	h := e.Do("warm", func(uint64) (any, error) { ran = true; return nil, nil })
	v, err := h.Wait()
	if err != nil || v != "cached-value" {
		t.Fatalf("primed cell = (%v, %v), want (cached-value, nil)", v, err)
	}
	if ran {
		t.Fatal("primed cell executed its task")
	}
	e.Wait()
	rep := e.Report()
	if rep.Primed != 1 || rep.MemoHits != 1 || rep.Executed != 0 {
		t.Fatalf("report = %+v, want Primed=1 MemoHits=1 Executed=0", rep)
	}
}

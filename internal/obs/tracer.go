package obs

// Tracer records filtered events into a bounded ring buffer, and hands every
// event to its tap (see SetTap). A nil *Tracer is the disabled tracer: every
// method is a no-op, and hot call sites additionally guard event
// construction behind `if t := x.trace; t != nil { ... }` so the disabled
// path costs one nil check.
//
// Tracer is not synchronized: each simulated system is single-threaded, and
// every run owns its own tracer. Parallel sweeps attach distinct tracers to
// distinct cells.
type Tracer struct {
	buf    []Event
	next   int    // ring write position
	total  uint64 // events recorded (post-filter), including overwritten
	filter Filter
	tap    func(Event)
}

// NewTracer returns a tracer sized and filtered per cfg.
func NewTracer(cfg Config) *Tracer {
	capacity := cfg.TraceCapacity
	switch {
	case capacity == 0:
		capacity = DefaultTraceCapacity
	case capacity < 0:
		capacity = 0
	}
	return &Tracer{buf: make([]Event, 0, capacity), filter: cfg.Filter}
}

// Emit records e if it passes the filter. Safe on a nil receiver.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	if t.tap != nil {
		t.tap(e)
	}
	if !t.filter.Match(e) {
		return
	}
	t.total++
	if cap(t.buf) > 0 {
		if len(t.buf) < cap(t.buf) {
			t.buf = append(t.buf, e)
		} else {
			t.buf[t.next] = e
		}
		t.next++
		if t.next == cap(t.buf) {
			t.next = 0
		}
	}
}

// SetTap installs fn to receive every event offered to the tracer, before
// the filter and independent of ring capacity — the complete stream of the
// run, which the flight recorder reads. A tracer has one tap; nil removes it.
func (t *Tracer) SetTap(fn func(Event)) {
	if t != nil {
		t.tap = fn
	}
}

// Events returns the buffered events oldest-first. The slice is a copy.
func (t *Tracer) Events() []Event {
	if t == nil || len(t.buf) == 0 {
		return nil
	}
	out := make([]Event, 0, len(t.buf))
	if len(t.buf) == cap(t.buf) {
		out = append(out, t.buf[t.next:]...)
	}
	out = append(out, t.buf[:t.next]...)
	return out
}

// Total returns the number of events recorded post-filter, including any
// that were overwritten after the ring filled.
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	return t.total
}

// Dropped returns how many recorded events were overwritten by ring
// wrap-around (Total minus what Events can still return).
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.total - uint64(len(t.buf))
}

// Reset discards all buffered events but keeps capacity, filter and tap.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.buf = t.buf[:0]
	t.next = 0
	t.total = 0
}

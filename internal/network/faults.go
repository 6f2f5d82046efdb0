package network

// Fault injection: deterministic, seed-driven perturbation of message
// delivery, used by the protocol fuzzing harness (internal/fuzz) to explore
// message interleavings far beyond what the fixed-latency crossbar produces.
//
// All perturbation stays within the protocol-legal delivery contract
// documented in PROTOCOL.md §"Network ordering contract": per-(src,dst,class)
// FIFO is preserved (the inbox clamp in SendAfter runs *after* the injected
// delay, so a jittered message can never overtake an earlier one on the same
// virtual channel) and every message is eventually delivered.
// Cross-channel reordering — control overtaking data, messages from different
// senders arriving in any order, different blocks interleaving arbitrarily —
// is exactly the freedom a real NoC with separate virtual networks has, and
// is what the injector exercises.
//
// Sabotage, by contrast, deliberately breaks the contract (dropping, wedging
// or corrupting one message). It exists only to validate that the fuzzing
// oracles actually catch protocol bugs; it is never enabled outside the
// harness's self-checks.

// FaultPlan describes a deterministic delivery perturbation. The zero value
// injects nothing. All perturbation is a pure function of (Seed, Msg.Seq), so
// a run with a given plan is exactly reproducible.
type FaultPlan struct {
	// Seed keys the per-message jitter hash.
	Seed uint64

	// MaxJitter is the maximum extra delivery delay in cycles; each message
	// receives hash(Seed, Seq) % (MaxJitter+1) additional cycles. 0 disables
	// jitter.
	MaxJitter uint64

	// BurstPeriod/BurstLen model congestion bursts: deliveries that would
	// land in the first BurstLen cycles of each BurstPeriod-cycle window are
	// pushed to the window's end, releasing them in a burst. BurstPeriod 0
	// disables bursting.
	BurstPeriod uint64
	BurstLen    uint64
}

// Enabled reports whether the plan perturbs anything.
func (fp *FaultPlan) Enabled() bool {
	return fp != nil && (fp.MaxJitter > 0 || (fp.BurstPeriod > 0 && fp.BurstLen > 0))
}

// splitmix64 is the SplitMix64 finalizer: a high-quality 64-bit mixing
// function, used to derive per-message jitter from (Seed, Seq).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// perturb maps a nominal delivery cycle to the perturbed one for message
// sequence number seq. The mapping is monotone per channel because the
// caller's inbox clamp runs afterwards.
func (fp *FaultPlan) perturb(readyAt, seq uint64) uint64 {
	if fp.MaxJitter > 0 {
		readyAt += splitmix64(fp.Seed^(seq*0x2545f4914f6cdd1d)) % (fp.MaxJitter + 1)
	}
	if fp.BurstPeriod > 0 && fp.BurstLen > 0 {
		if pos := readyAt % fp.BurstPeriod; pos < fp.BurstLen {
			readyAt += fp.BurstLen - pos
		}
	}
	return readyAt
}

// SetFaults installs a fault plan. nil (the default) disables injection and
// restores exact nominal-latency delivery.
func (n *Network) SetFaults(fp *FaultPlan) { n.faults = fp }

// SabotageMode selects how a sabotaged message is mistreated.
type SabotageMode int

const (
	// SabotageDrop silently discards the message (models a lost flit; the
	// protocol has no timeout/retry, so the transaction wedges).
	SabotageDrop SabotageMode = iota

	// SabotageWedge enqueues the message with an unreachable delivery cycle:
	// it stays visible to ForEachInFlight (and hence watchdog dumps) but is
	// never delivered.
	SabotageWedge

	// SabotageCorrupt flips one byte of the message's data payload (a silent
	// data-corruption bug; only meaningful for data-class messages).
	SabotageCorrupt
)

func (m SabotageMode) String() string {
	switch m {
	case SabotageDrop:
		return "drop"
	case SabotageWedge:
		return "wedge"
	case SabotageCorrupt:
		return "corrupt"
	}
	return "?"
}

// wedgedReadyAt is the delivery cycle assigned to wedged messages: far beyond
// any reachable cycle, but small enough that arithmetic on it cannot wrap.
const wedgedReadyAt = uint64(1) << 62

// Sabotage describes one deliberately injected protocol bug: the Nth sent
// message with opcode Op is dropped, wedged or corrupted. It validates the
// harness's oracles (a healthy protocol plus a sabotaged network must produce
// a detected failure); see internal/fuzz.
type Sabotage struct {
	Mode SabotageMode
	Op   Op
	Nth  int // 1-based among sent messages with opcode Op

	seen int
	hits int
}

// Hits reports how many times the sabotage actually fired (0 if the targeted
// message never occurred in the run).
func (s *Sabotage) Hits() int { return s.hits }

// SetSabotage installs a sabotage hook (validation only). nil disables it.
func (n *Network) SetSabotage(s *Sabotage) { n.sabotage = s }

// applySabotage is called by SendAfter for every message when a sabotage hook
// is installed. It returns the (possibly wedged) delivery cycle and whether
// the message should be dropped instead of enqueued.
func (n *Network) applySabotage(m *Msg, readyAt uint64) (uint64, bool) {
	s := n.sabotage
	if m.Op != s.Op {
		return readyAt, false
	}
	s.seen++
	if s.seen != s.Nth {
		return readyAt, false
	}
	s.hits++
	switch s.Mode {
	case SabotageDrop:
		return readyAt, true
	case SabotageWedge:
		return wedgedReadyAt, false
	case SabotageCorrupt:
		if len(m.Data) > 0 {
			// Corrupt a copy: handlers may alias Msg.Data into cache lines,
			// and the sender's own copy (e.g. a WB buffer) must stay intact —
			// the bug modelled here is on-the-wire corruption.
			c := make([]byte, len(m.Data))
			copy(c, m.Data)
			c[int(m.Seq)%len(c)] ^= 0x40
			m.Data = c
		}
		return readyAt, false
	}
	return readyAt, false
}

// ForEachInFlight visits every queued (undelivered) message with its delivery
// cycle, in per-destination queue order (watchdog dumps, tests).
func (n *Network) ForEachInFlight(fn func(m *Msg, readyAt uint64)) {
	for i := range n.inboxes {
		q := &n.inboxes[i]
		if len(q.buf) == 0 {
			continue
		}
		mask := len(q.buf) - 1
		for k := 0; k < q.n; k++ {
			inf := &q.buf[(q.head+k)&mask]
			fn(inf.msg, inf.readyAt)
		}
	}
}

package coherence

import (
	"fmt"

	"fscoherence/internal/coherence/spec"
	"fscoherence/internal/memsys"
	"fscoherence/internal/network"
)

// Table-driven message dispatch, built at package init from the protocol
// tables in internal/coherence/spec; it is the controllers' only dispatch
// path. A message is dispatched by (observed state, opcode): legal pairs
// invoke the handler the spec's transition rows name (the handlers
// themselves enforce sub-case guards), impossible pairs panic with the
// spec's reason, and opcodes outside the FSM's event list panic as
// unexpected messages.

type dispatchEntry struct {
	legal bool
	why   string // reason dispatch must panic, when !legal
}

// Observed-state indices follow the spec FSMs' state declaration order.
const (
	numL1Obs  = 10
	numDirObs = 10
)

var (
	l1Actions  [network.NumOps]func(*L1, *network.Msg)
	l1Legal    [numL1Obs][network.NumOps]dispatchEntry
	dirActions [network.NumOps]func(*Dir, *network.Msg)
	dirLegal   [numDirObs][network.NumOps]dispatchEntry

	l1ObsNames  []string
	dirObsNames []string

	// Each controller enum resolved to its spec state index once, so
	// dispatch indexes arrays instead of hashing state names per message.
	l1TxnObs     [mshrWaitChk + 1]int
	l1LineObs    [L1Prv + 1]int
	l1WBObs      int
	l1IObs       int
	dirTxnObs    [txnEvict + 1]int
	dirLineObs   [DirPrv + 1]int
	dirAbsentObs int
)

// specIndex returns the index of an observed-state name in the spec's state
// list. A miss means a controller state exists that the spec tables don't
// cover, so fail loudly at init rather than alias it to another state.
func specIndex(fsm string, names []string, name string) int {
	for i, n := range names {
		if n == name {
			return i
		}
	}
	panic(fmt.Sprintf("protocol spec: observed state %s.%s is not in internal/coherence/spec", fsm, name))
}

// buildDispatch fills actions and legal from f's tables and returns f's
// observed-state names, which index legal.
func buildDispatch[C any](f *spec.FSM, methods map[string]func(C, *network.Msg),
	actions *[network.NumOps]func(C, *network.Msg), legal [][network.NumOps]dispatchEntry) []string {
	if err := f.Check(); err != nil {
		panic(fmt.Sprintf("protocol spec: %v", err))
	}
	names := f.StateNames()
	if len(names) != len(legal) {
		panic(fmt.Sprintf("protocol spec: %s has %d observed states, dispatch expects %d", f.Name, len(names), len(legal)))
	}
	for _, tr := range f.Transitions {
		fn, ok := methods[tr.Action]
		if !ok {
			panic(fmt.Sprintf("protocol spec: %s names unknown action %q for %v", f.Name, tr.Action, tr.Event))
		}
		actions[tr.Event] = fn // one action per event; FSM.Check enforced it
		legal[specIndex(f.Name, names, tr.State)][tr.Event] = dispatchEntry{legal: true}
	}
	for _, im := range f.Impossible {
		legal[specIndex(f.Name, names, im.State)][im.Event] = dispatchEntry{why: im.Why}
	}
	return names
}

func init() {
	l1Methods := map[string]func(*L1, *network.Msg){
		"onData":        (*L1).onData,
		"onDataPrv":     (*L1).onDataPrv,
		"onInvAck":      (*L1).onInvAck,
		"onUpgradeAck":  (*L1).onUpgradeAck,
		"onUpgradeNack": (*L1).onUpgradeNack,
		"onUpgAckPrv":   (*L1).onUpgAckPrv,
		"onAckPrv":      (*L1).onAckPrv,
		"onFwdGetS":     (*L1).onFwdGetS,
		"onFwdGetX":     (*L1).onFwdGetX,
		"onInv":         (*L1).onInv,
		"onTRPrv":       (*L1).onTRPrv,
		"onInvPrv":      (*L1).onInvPrv,
		"onWBAck":       (*L1).onWBAck,
	}
	l1ObsNames = buildDispatch(spec.L1(), l1Methods, &l1Actions, l1Legal[:])
	for v := range l1TxnObs {
		l1TxnObs[v] = specIndex("L1", l1ObsNames, mshrState(v).String())
	}
	for v := range l1LineObs {
		l1LineObs[v] = specIndex("L1", l1ObsNames, L1State(v).String())
	}
	l1WBObs = specIndex("L1", l1ObsNames, "WB")
	l1IObs = specIndex("L1", l1ObsNames, "I")

	dirMethods := map[string]func(*Dir, *network.Msg){
		"handleRequest":  (*Dir).handleRequest,
		"onWB":           (*Dir).onWB,
		"onPrvWB":        (*Dir).onPrvWB,
		"onCtrlWB":       (*Dir).onCtrlWB,
		"onInvAck":       (*Dir).onInvAck,
		"onXferOwnerAck": (*Dir).onXferOwnerAck,
		"onDataToDir":    (*Dir).onDataToDir,
		"onRepMD":        (*Dir).onRepMD,
		"onMDPhantom":    (*Dir).onMDPhantom,
	}
	dirObsNames = buildDispatch(spec.Dir(), dirMethods, &dirActions, dirLegal[:])
	for v := range dirTxnObs {
		dirTxnObs[v] = specIndex("Dir", dirObsNames, dirTxnKind(v).String())
	}
	for v := range dirLineObs {
		dirLineObs[v] = specIndex("Dir", dirObsNames, DirState(v).String())
	}
	dirAbsentObs = specIndex("Dir", dirObsNames, "absent")
}

// observedState computes the spec state index governing dispatch for block a:
// MSHR transaction > resident line (either private level) > WB entry > I.
func (l *L1) observedState(a memsys.Addr) int {
	if tx := l.mshrs[a]; tx != nil {
		return l1TxnObs[tx.state]
	}
	if e := l.peekAny(a); e != nil && e.Payload.state != L1Invalid {
		return l1LineObs[e.Payload.state]
	}
	if _, ok := l.wb[a]; ok {
		return l1WBObs
	}
	return l1IObs
}

// observedState computes the spec state index for the slice: absent when no
// entry exists, the transaction kind when busy, else the stable state.
func (d *Dir) observedState(a memsys.Addr) int {
	e := d.llc.Peek(a) // Peek block-aligns and leaves LRU/stats untouched
	if e == nil {
		return dirAbsentObs
	}
	if tx := e.Payload.txn; tx != nil {
		return dirTxnObs[tx.kind]
	}
	return dirLineObs[e.Payload.state]
}

// handle dispatches one incoming message through the spec tables.
func (l *L1) handle(m *network.Msg) {
	fn := l1Actions[m.Op]
	if fn == nil {
		panic(fmt.Sprintf("l1 %d: unexpected message %v", l.core, m))
	}
	idx := l.observedState(m.Addr)
	if ent := l1Legal[idx][m.Op]; !ent.legal {
		panic(fmt.Sprintf("l1 %d: protocol violation: %v observed in L1.%s (%s): %v",
			l.core, m.Op, l1ObsNames[idx], ent.why, m))
	}
	fn(l, m)
}

// handle dispatches one incoming message through the spec tables.
func (d *Dir) handle(m *network.Msg) {
	fn := dirActions[m.Op]
	if fn == nil {
		panic(fmt.Sprintf("dir %d: unexpected message %v", d.slice, m))
	}
	idx := d.observedState(m.Addr)
	if ent := dirLegal[idx][m.Op]; !ent.legal {
		panic(fmt.Sprintf("dir %d: protocol violation: %v observed in Dir.%s (%s): %v",
			d.slice, m.Op, dirObsNames[idx], ent.why, m))
	}
	fn(d, m)
}

package spec

import (
	"fmt"
	"sort"
	"strings"

	"fscoherence/internal/network"
)

// Generated-region markers in PROTOCOL.md. Render() produces the text between
// them; cmd/fsspec splices it in place and `make check` diffs it.
const (
	BeginMarker = "<!-- BEGIN GENERATED: protocol-spec (cmd/fsspec; edit internal/coherence/spec instead) -->"
	EndMarker   = "<!-- END GENERATED: protocol-spec -->"
)

// qual renders an observed-state name with its FSM prefix ("absent" is not a
// state of an entry but the lack of one, so it stays unqualified).
func qual(fsm, state string) string {
	if state == "absent" {
		return "*absent*"
	}
	return fmt.Sprintf("`%s.%s`", fsm, state)
}

func sizeDesc(op network.Op) string {
	const probe = 1 << 20 // marker block size to spot block-sized payloads
	switch network.SizeOf(op, probe) {
	case network.HeaderBytes:
		return fmt.Sprintf("%d B", network.HeaderBytes)
	case network.HeaderBytes + probe:
		return fmt.Sprintf("%d B + block", network.HeaderBytes)
	case network.HeaderBytes + network.MDPayloadBytes:
		return fmt.Sprintf("%d B + %d B", network.HeaderBytes, network.MDPayloadBytes)
	default:
		return "?"
	}
}

// transitionRows renders one FSM's (state, event) transition table, grouping
// states that share an event, guard, action and next-state into one row.
func transitionRows(b *strings.Builder, f *FSM) {
	fmt.Fprintf(b, "| State | Message | Guard | Action / next |\n|---|---|---|---|\n")
	for _, e := range f.Events {
		type group struct {
			states []string
			guard  string
			next   string
		}
		var groups []*group
		for _, tr := range f.Transitions {
			if tr.Event != e {
				continue
			}
			if n := len(groups); n > 0 && groups[n-1].guard == tr.Guard && groups[n-1].next == tr.Next {
				groups[n-1].states = append(groups[n-1].states, tr.State)
				continue
			}
			groups = append(groups, &group{states: []string{tr.State}, guard: tr.Guard, next: tr.Next})
		}
		for _, g := range groups {
			names := make([]string, len(g.states))
			for i, s := range g.states {
				names[i] = qual(f.Name, s)
			}
			guard := g.guard
			if guard == "" {
				guard = "—"
			}
			fmt.Fprintf(b, "| %s | `%v` | %s | %s |\n",
				strings.Join(names, " / "), e, guard, g.next)
		}
	}
}

// impossibleRows renders the complement: pairs the protocol can never
// produce, where the dispatcher panics. Grouped by (event, reason).
func impossibleRows(b *strings.Builder, f *FSM) {
	fmt.Fprintf(b, "| Message | States | Why it cannot happen |\n|---|---|---|\n")
	type key struct {
		e   network.Op
		why string
	}
	var order []key
	grouped := make(map[key][]string)
	for _, im := range f.Impossible {
		k := key{im.Event, im.Why}
		if _, ok := grouped[k]; !ok {
			order = append(order, k)
		}
		grouped[k] = append(grouped[k], im.State)
	}
	sort.SliceStable(order, func(i, j int) bool { return order[i].e < order[j].e })
	for _, k := range order {
		names := make([]string, len(grouped[k]))
		for i, s := range grouped[k] {
			names[i] = qual(f.Name, s)
		}
		fmt.Fprintf(b, "| `%v` | %s | %s |\n", k.e, strings.Join(names, ", "), k.why)
	}
}

func stateTable(b *strings.Builder, f *FSM, names []string) {
	fmt.Fprintf(b, "| State | Meaning |\n|---|---|\n")
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	for _, s := range f.States {
		if want[s.Name] {
			fmt.Fprintf(b, "| %s | %s |\n", qual(f.Name, s.Name), s.Meaning)
		}
	}
}

// Render produces PROTOCOL.md sections 2-4 from the spec tables. The output
// is the text between BeginMarker and EndMarker (exclusive); cmd/fsspec
// regenerates the document and protocol_doc_test.go pins the committed copy
// to this function's output.
func Render() string {
	var b strings.Builder

	// ---- §2 ----
	fmt.Fprintf(&b, "## 2. Message table\n\n")
	fmt.Fprintf(&b, "All %d opcodes defined in `internal/network/message.go`, with their virtual\n", len(Messages()))
	fmt.Fprintf(&b, "channel (accounting class, which is also the FIFO channel — see §5), wire\nsize, direction and meaning. Class and size below are computed from\n`network.ClassOf`/`network.SizeOf`, so this table cannot disagree with the\ntraffic accounting the simulator performs.\n\n")
	fmt.Fprintf(&b, "| Opcode | Class | Size | Direction | Meaning |\n|---|---|---|---|---|\n")
	for _, m := range Messages() {
		fmt.Fprintf(&b, "| `%v` | %v | %s | %s | %s |\n",
			m.Op, network.ClassOf(m.Op), sizeDesc(m.Op), m.Direction, m.Meaning)
	}
	fmt.Fprintf(&b, "\n`Msg` also carries simulator-internal fields (`Counted`, `Seq`, retention\nbits) that are invisible on the wire; see the struct's comments.\n\n")
	fmt.Fprintf(&b, "### 2.1 Protocol backends\n\n")
	fmt.Fprintf(&b, "The `-protocol` flag (fsrun/fsexp/fsfuzz) selects which backend drives the\nrepair decision; detection metadata and all fuzzing oracles are\nbackend-generic (EXPERIMENTS.md §\"Comparing protocol backends\").\n\n")
	fmt.Fprintf(&b, "| Backend | `-protocol` | Repair | Summary |\n|---|---|---|---|\n")
	for _, p := range Backends() {
		fmt.Fprintf(&b, "| %s | `%s` | %s | %s |\n", p.Name, p.Flag, p.Repair, p.Summary)
	}
	fmt.Fprintf(&b, "\n")

	// ---- §3 ----
	l1 := L1()
	fmt.Fprintf(&b, "## 3. L1 controller FSM\n\n")
	fmt.Fprintf(&b, "The controller dispatches each incoming message against the block's\n*observed state*, computed with strict precedence: an outstanding MSHR\ntransaction (`L1.IS_D`/`L1.IM_AD`/`L1.SM_A`/`L1.PRV_CHK`) wins over a line\nresident in either private level (`L1.S`/`L1.E`/`L1.M`/`L1.PRV`), which wins\nover a writeback-buffer entry (`L1.WB`); otherwise the block is `L1.I`. An\nMSHR and a WB entry can coexist for one block (fig. 11/12 reissue races), as\ncan a resident line and a stale WB entry (a grant overtaking the previous\neviction's `WBAck`) — precedence picks the state that governs dispatch.\n\n")
	fmt.Fprintf(&b, "### 3.1 Stable states\n\n")
	stateTable(&b, l1, []string{"I", "S", "E", "M", "PRV"})
	fmt.Fprintf(&b, "\n### 3.2 Transient states\n\n")
	fmt.Fprintf(&b, "Transient state lives in the MSHR (`mshr.state`); naming follows\nSorin/Hill/Wood as the paper does. `L1.WB` is the writeback buffer, not an\nMSHR state, but dispatches like one when nothing outranks it.\n\n")
	stateTable(&b, l1, []string{"IS_D", "IM_AD", "SM_A", "PRV_CHK", "WB"})
	fmt.Fprintf(&b, "\nMSHR flags that refine these states (all observable in watchdog dumps,\n§7.3): `invAfterFill` (use-once fill, §6.5), `reissue` (stale-grant races,\n§6.6), `deferred` (buffered directory-initiated messages, §6.2).\n\n")
	fmt.Fprintf(&b, "### 3.3 Core-initiated transitions\n\n")
	fmt.Fprintf(&b, "| From | Access | Action | To |\n|---|---|---|---|\n")
	for _, c := range L1CoreTransitions() {
		fmt.Fprintf(&b, "| %s | %s | %s | %s |\n", c.From, c.Trigger, c.Action, c.To)
	}
	fmt.Fprintf(&b, "\nEvictions (from the last private level; with an L2 the L1 eviction is a\nsilent demotion first):\n\n")
	fmt.Fprintf(&b, "| From | Action | To |\n|---|---|---|\n")
	for _, c := range L1Evictions() {
		fmt.Fprintf(&b, "| %s | %s | %s |\n", c.From, c.Action, c.To)
	}
	fmt.Fprintf(&b, "\nWhile a block sits in the writeback buffer, new accesses to it are held off\n(`Submit` returns retry) and interventions are served from the buffer (§6.4).\n\n")
	fmt.Fprintf(&b, "### 3.4 Network-initiated transitions\n\n")
	fmt.Fprintf(&b, "One row per (observed state, message) pair the protocol can produce; the\nguard column refines sub-cases the handler distinguishes. Rows are the\ndispatch tables `internal/coherence` executes (dispatch.go builds them from\n`internal/coherence/spec` at init).\n\n")
	transitionRows(&b, l1)
	fmt.Fprintf(&b, "\n### 3.5 Impossible pairs\n\n")
	fmt.Fprintf(&b, "Every remaining (state, message) pair is a protocol bug: the dispatcher\npanics citing the reason below (the fuzzer treats such a panic as a failure).\n\n")
	impossibleRows(&b, l1)
	fmt.Fprintf(&b, "\n")

	// ---- §4 ----
	dir := Dir()
	fmt.Fprintf(&b, "## 4. Directory / LLC slice FSM\n\n")
	fmt.Fprintf(&b, "The slice dispatches against the block's observed state: *absent* when no\ndirectory entry exists, the transaction kind when the entry is busy (a busy\nentry carries exactly one `dirTxn`; later requests park in the entry's\n`pendq` and retry when the transaction ends), otherwise the entry's stable\n`DirState`.\n\n")
	fmt.Fprintf(&b, "### 4.1 Stable states\n\n")
	fmt.Fprintf(&b, "Per-block directory state (`DirState`; the `String()` names follow the\npaper's directory-MESI convention where the owned state prints as `M`):\n\n")
	stateTable(&b, dir, []string{"I", "S", "M", "PRV"})
	fmt.Fprintf(&b, "\n### 4.2 Transient states (transaction kinds)\n\n")
	stateTable(&b, dir, []string{"FWD", "MEM_FILL", "PRV_INIT", "PRV_TERM", "EVICT"})
	fmt.Fprintf(&b, "\nHow each transaction completes:\n\n")
	fmt.Fprintf(&b, "- `Dir.FWD` — `DataToDir` (GetS: → `Dir.S` with {old owner unless it raced\n  a writeback, requestor}) or `Xfer_Owner_ACK` (GetX: → `Dir.M`, new owner).\n  A racing `WB` from the old owner sets `wbRace`; its `WBAck` is deferred to\n  completion (§6.4).\n")
	fmt.Fprintf(&b, "- `Dir.MEM_FILL` — the fill; queued requests are then served *inline* (the\n  first one re-busies and pins the line, guaranteeing progress under set\n  pressure).\n")
	fmt.Fprintf(&b, "- `Dir.PRV_INIT` — commit → `Dir.PRV` (trigger served with\n  `Data_PRV`/`UPG_Ack_PRV`); or abort on a byte conflict (§V-A): roll the\n  joined copies back through `Dir.PRV_TERM`, then retry the trigger as a\n  normal request.\n")
	fmt.Fprintf(&b, "- `Dir.PRV_TERM` — all `Prv_WB`/`Ctrl_WB` collected → merge committed,\n  → `Dir.I`; a held CHK is converted to `GetS`/`GetX` and retried; with\n  `evictAfter` the line is then dropped (inclusion-driven termination).\n")
	fmt.Fprintf(&b, "- `Dir.EVICT` — all `InvAck`s/`WB`s collected → line dropped (dirty data to\n  memory); the displacing request claims the freed way immediately.\n\n")
	fmt.Fprintf(&b, "### 4.3 Transitions\n\n")
	transitionRows(&b, dir)
	fmt.Fprintf(&b, "\nOther termination triggers (§V-C): SAM-entry eviction and external-socket\naccess (`ExternalAccess`) queue *forced* terminations, drained each `Tick`\nwhen the entry is not busy.\n\n")
	fmt.Fprintf(&b, "In FSDetect/FSLite, fetch requests feed the policy's FC counters\n(`OnFetchRequest`); the `Counted` flag stops a retried request from being\ncounted twice. The `REQ_MD` decision rides on invalidations and\ninterventions as the `ReqMD` header bit (§IV).\n\n")
	fmt.Fprintf(&b, "`Prv_WB` merges the responder's last-written bytes (SAM `MergeMask`) into\nthe merge target, and adds `Data − Base` for reduction-marked words (§VII);\nit is accepted during `Dir.PRV_TERM` (into `mergeBuf`), during\n`Dir.PRV_INIT` (an early-evicting joiner), and against a quiescent `Dir.PRV`\nentry (plain PRV eviction, §V-D — prunes the sharer set, keeping it exact).\n\n")

	return b.String()
}

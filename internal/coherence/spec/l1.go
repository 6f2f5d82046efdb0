package spec

import "fscoherence/internal/network"

// t builds one transition row.
func t(state string, event network.Op, guard, action, next string) Transition {
	return Transition{State: state, Event: event, Guard: guard, Action: action, Next: next}
}

// imps builds one impossible marker per state, sharing the reason.
func imps(event network.Op, why string, states ...string) []Impossible {
	out := make([]Impossible, len(states))
	for i, s := range states {
		out[i] = Impossible{State: s, Event: event, Why: why}
	}
	return out
}

// cat concatenates impossible-marker groups.
func cat(groups ...[]Impossible) []Impossible {
	var out []Impossible
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

// L1 observed-state names. The controller observes a block as exactly one of
// these, with MSHR > resident line > WB buffer precedence (see L1().States).
const (
	l1I      = "I"
	l1S      = "S"
	l1E      = "E"
	l1M      = "M"
	l1PRV    = "PRV"
	l1ISD    = "IS_D"
	l1IMAD   = "IM_AD"
	l1SMA    = "SM_A"
	l1PRVCHK = "PRV_CHK"
	l1WB     = "WB"
)

// L1 returns the L1 controller's FSM over its observed states.
//
// An observed state is computed per incoming message with strict precedence:
// an outstanding MSHR transaction (IS_D/IM_AD/SM_A/PRV_CHK) wins over a
// resident line in either private level (S/E/M/PRV), which wins over a
// writeback-buffer entry (WB); otherwise the block is I. An MSHR and a WB
// entry can coexist for one block (fig. 11/12 reissue races), as can a
// resident line and a stale WB entry (a grant overtaking the previous
// eviction's WBAck) — precedence picks the state that governs dispatch.
func L1() *FSM {
	noTxn := "a grant always answers an outstanding MSHR transaction"
	noUpg := "answers only an outstanding `Upgrade`"
	f := &FSM{
		Name: "L1",
		States: []StateDoc{
			{l1I, "Not present in any private level; no transaction, no WB-buffer entry."},
			{l1S, "Shared, read-only, clean."},
			{l1E, "Exclusive, clean; silently upgradeable to `L1.M` on a local write."},
			{l1M, "Modified, exclusive, dirty."},
			{l1PRV, "Privatized (FSLite, §V): a *byte-permission-checked* private copy inside a privatized episode, keeping a `base` snapshot from episode entry for reduction merging."},
			{l1ISD, "MSHR: `GetS` issued on a read miss; waiting for `Data`/`DataExcl`/`Data_PRV`."},
			{l1IMAD, "MSHR: `GetX` issued on a write miss; waiting for `DataExcl`/`Data_PRV` plus `InvAck`×`AckCount`."},
			{l1SMA, "MSHR: `Upgrade` issued from `L1.S`; waiting for `UpgradeAck`/`UPG_Ack_PRV`/`UpgradeNack` plus `InvAck`s."},
			{l1PRVCHK, "MSHR: `GetCHK`/`GetXCHK` issued from `L1.PRV` when the PAM lacks byte permission; the line stays resident and pinned."},
			{l1WB, "Writeback buffer: the line was evicted, its `WB`/`Prv_WB` is in flight, awaiting `WBAck`; interventions are served from the buffer (§6.4)."},
		},
		Events: []network.Op{
			network.OpData, network.OpDataExcl, network.OpDataPrv,
			network.OpInvAck, network.OpUpgradeAck, network.OpUpgradeNack,
			network.OpUpgAckPrv, network.OpAckPrv,
			network.OpFwdGetS, network.OpFwdGetX, network.OpInv,
			network.OpTRPrv, network.OpInvPrv, network.OpWBAck,
		},
		Transitions: []Transition{
			// Data (S grant) — shares the onData handler with DataExcl.
			t(l1ISD, network.OpData, "", "onData", "`L1.S` (fill; buffered loads commit) — or stay `L1.I` on a use-once fill (`invAfterFill`, §6.5)"),
			t(l1IMAD, network.OpData, "`reissue` set: stale grant after an `Inv_PRV` race (fig. 11)", "onData", "discard and reissue as `GetX` → `L1.IM_AD`"),
			t(l1SMA, network.OpData, "`reissue` set only — a live upgrade is never answered with `Data`", "onData", "discard and reissue as `GetX` → `L1.IM_AD`"),
			t(l1PRVCHK, network.OpData, "line no longer resident: the episode terminated and the directory converted the CHK into a demand request (§V-C)", "onData", "convert to `L1.IS_D`/`L1.IM_AD`, then per grant"),

			// DataExcl (E/M grant).
			t(l1ISD, network.OpDataExcl, "", "onData", "`L1.E` (MESI E grant — no other copies)"),
			t(l1IMAD, network.OpDataExcl, "", "onData", "stash the payload until `InvAck`×`AckCount` collected, then fill dirty → `L1.M`"),
			t(l1SMA, network.OpDataExcl, "`reissue` set only", "onData", "discard and reissue as `GetX` → `L1.IM_AD`"),
			t(l1PRVCHK, network.OpDataExcl, "line no longer resident (converted CHK, §V-C)", "onData", "convert to `L1.IS_D`/`L1.IM_AD`, then per grant"),

			// Data_PRV (privatized grant).
			t(l1ISD, network.OpDataPrv, "", "onDataPrv", "`L1.PRV`: fill, snapshot `base`, record the access's bytes in the fresh PAM entry"),
			t(l1IMAD, network.OpDataPrv, "", "onDataPrv", "`L1.PRV`: fill, snapshot `base`, record bytes"),
			t(l1SMA, network.OpDataPrv, "`reissue` set only", "onDataPrv", "discard and reissue as `GetX` → `L1.IM_AD`"),
			t(l1PRVCHK, network.OpDataPrv, "`reissue` set only — a live CHK is converted to `L1.IS_D`/`L1.IM_AD` by the terminating `Inv_PRV` before any grant can arrive", "onDataPrv", "discard and reissue"),

			// InvAck.
			t(l1IMAD, network.OpInvAck, "", "onInvAck", "count toward `AckCount`; fill completes (`L1.M`) when the data and every ack are in"),
			t(l1SMA, network.OpInvAck, "", "onInvAck", "count; the in-place upgrade completes (`L1.M`) when the grant and every ack are in"),

			// Upgrade grants.
			t(l1SMA, network.OpUpgradeAck, "", "onUpgradeAck", "record `AckCount`; upgrade the S copy in place → `L1.M` once acks complete"),
			t(l1SMA, network.OpUpgradeNack, "", "onUpgradeNack", "drop the S copy (if still held), reissue as `GetX` → `L1.IM_AD`"),
			t(l1SMA, network.OpUpgAckPrv, "", "onUpgAckPrv", "the preceding `TR_PRV` already moved the line to `L1.PRV`: record bytes, commit → `L1.PRV`; with `reissue` (fig. 12 race) the stale grant reissues as `GetX`"),

			// Ack_PRV.
			t(l1PRVCHK, network.OpAckPrv, "PRV copy still resident (pinned by the CHK)", "onAckPrv", "record bytes in PAM, commit → `L1.PRV`"),

			// Fwd_GetS.
			t(l1E, network.OpFwdGetS, "", "onFwdGetS", "`Data` → requestor, `DataToDir` → dir, report/mark PAM (`REQ_MD`) → `L1.S`"),
			t(l1M, network.OpFwdGetS, "", "onFwdGetS", "`Data` → requestor, `DataToDir` → dir, report/mark PAM → `L1.S`"),
			t(l1WB, network.OpFwdGetS, "", "onFwdGetS", "late intervention: serve `Data`+`DataToDir` from the WB buffer (§6.4); unchanged"),
			t(l1S, network.OpFwdGetS, "stale WB-buffer entry present (line re-acquired while the old writeback's `WBAck` is in flight)", "onFwdGetS", "serve from the WB buffer; unchanged"),
			t(l1PRV, network.OpFwdGetS, "stale WB-buffer entry present", "onFwdGetS", "serve from the WB buffer; unchanged"),
			t(l1ISD, network.OpFwdGetS, "", "onFwdGetS", "intervention raced ahead of our own grant: buffer until the transaction completes (§6.2)"),
			t(l1IMAD, network.OpFwdGetS, "", "onFwdGetS", "buffer until the transaction completes"),
			t(l1SMA, network.OpFwdGetS, "", "onFwdGetS", "buffer until the transaction completes"),
			t(l1PRVCHK, network.OpFwdGetS, "WB-buffer entry (fig. 11/12 writeback) or line no longer resident (converted CHK)", "onFwdGetS", "serve from the WB buffer, else buffer until the converted transaction completes"),

			// Fwd_GetX.
			t(l1E, network.OpFwdGetX, "", "onFwdGetX", "`DataExcl(Dirty)` → requestor, `Xfer_Owner_ACK` → dir, take+report PAM → `L1.I`"),
			t(l1M, network.OpFwdGetX, "", "onFwdGetX", "`DataExcl(Dirty)` → requestor, `Xfer_Owner_ACK` → dir, take+report PAM → `L1.I`"),
			t(l1WB, network.OpFwdGetX, "", "onFwdGetX", "serve `DataExcl`+`Xfer_Owner_ACK` from the WB buffer; unchanged"),
			t(l1S, network.OpFwdGetX, "stale WB-buffer entry present", "onFwdGetX", "serve from the WB buffer; unchanged"),
			t(l1PRV, network.OpFwdGetX, "stale WB-buffer entry present", "onFwdGetX", "serve from the WB buffer; unchanged"),
			t(l1ISD, network.OpFwdGetX, "", "onFwdGetX", "buffer until the transaction completes (§6.2)"),
			t(l1IMAD, network.OpFwdGetX, "", "onFwdGetX", "buffer until the transaction completes"),
			t(l1SMA, network.OpFwdGetX, "", "onFwdGetX", "buffer until the transaction completes"),
			t(l1PRVCHK, network.OpFwdGetX, "WB-buffer entry or line no longer resident (converted CHK)", "onFwdGetX", "serve from the WB buffer, else buffer until the converted transaction completes"),

			// Inv.
			t(l1S, network.OpInv, "", "onInv", "invalidate, `InvAck` → `Requestor`, take+report PAM → `L1.I`"),
			t(l1E, network.OpInv, "LLC back-invalidation recall (`ToOwner`)", "onInv", "return the block: `WB` → slice, take+report PAM → `L1.I`"),
			t(l1M, network.OpInv, "LLC back-invalidation recall (`ToOwner`)", "onInv", "return the dirty block: `WB(Dirty)` → slice → `L1.I`"),
			t(l1I, network.OpInv, "not an owner recall (`!ToOwner`)", "onInv", "stale-sharer ack after a silent eviction: `InvAck` (+ `MD_Phantom` if `REQ_MD`); unchanged"),
			t(l1ISD, network.OpInv, "", "onInv", "`ToOwner`: defer behind the in-flight grant; else ack and mark `invAfterFill` (use-once fill, §6.5)"),
			t(l1IMAD, network.OpInv, "", "onInv", "`ToOwner`: defer behind the in-flight grant; else ack (the grant's own acks still complete it)"),
			t(l1SMA, network.OpInv, "", "onInv", "own S copy invalidated under the upgrade: invalidate, ack; the directory's `UpgradeNack` will reissue us as `GetX`"),
			t(l1PRVCHK, network.OpInv, "line no longer resident (converted CHK)", "onInv", "ack; a converted read marks `invAfterFill`"),
			t(l1WB, network.OpInv, "", "onInv", "`ToOwner`: the eviction writeback is in flight and the directory will absorb it — ignore; else ack; unchanged"),

			// TR_PRV.
			t(l1S, network.OpTRPrv, "", "onTRPrv", "ship PAM (`REP_MD`/`MD_Phantom`, `HasCopy=true`), allocate a fresh PAM entry, snapshot `base` → `L1.PRV`"),
			t(l1E, network.OpTRPrv, "", "onTRPrv", "as from `L1.S`, plus `DataToDir` refreshing the LLC → `L1.PRV`"),
			t(l1M, network.OpTRPrv, "", "onTRPrv", "as from `L1.S`, plus `DataToDir` refreshing the LLC → `L1.PRV`"),
			t(l1I, network.OpTRPrv, "", "onTRPrv", "no copy: `MD_Phantom` with `HasCopy=false`; unchanged"),
			t(l1WB, network.OpTRPrv, "", "onTRPrv", "copy already on its way back: `MD_Phantom` with `HasCopy=false`; unchanged"),
			t(l1ISD, network.OpTRPrv, "", "onTRPrv", "the directory holds us as the future owner: defer until the grant completes, then privatize"),
			t(l1IMAD, network.OpTRPrv, "", "onTRPrv", "defer until the grant completes, then privatize"),
			t(l1SMA, network.OpTRPrv, "", "onTRPrv", "granted upgrade (`dataSeen`): defer like an owner; ungranted upgrade: privatize the S copy now (fig. 12)"),
			t(l1PRVCHK, network.OpTRPrv, "line no longer resident (converted CHK)", "onTRPrv", "`MD_Phantom` with `HasCopy=false`"),

			// Inv_PRV.
			t(l1PRV, network.OpInvPrv, "", "onInvPrv", "`Prv_WB(Data, Base)` → dir, drop PAM → `L1.I` (copy sits in the WB buffer until `WBAck`)"),
			t(l1PRVCHK, network.OpInvPrv, "PRV copy resident (pinned by the CHK)", "onInvPrv", "convert the CHK into a demand request (§V-C), write the copy back → `L1.IS_D`/`L1.IM_AD` with the `Prv_WB` in flight"),
			t(l1ISD, network.OpInvPrv, "", "onInvPrv", "fig. 11: a `Data_PRV` grant is in flight — respond `Ctrl_WB`, mark `reissue`"),
			t(l1IMAD, network.OpInvPrv, "", "onInvPrv", "fig. 11: respond `Ctrl_WB`, mark `reissue`"),
			t(l1SMA, network.OpInvPrv, "", "onInvPrv", "fig. 12: our `UPG_Ack_PRV` is in flight — write the S copy back (`Prv_WB`), mark `reissue`; reissues as `GetX` when the stale grant lands"),
			t(l1WB, network.OpInvPrv, "", "onInvPrv", "eviction `Prv_WB` already in flight (the directory counts it): ignore; a non-PRV WB entry answers `Ctrl_WB`"),
			t(l1I, network.OpInvPrv, "", "onInvPrv", "no copy, no transaction: `Ctrl_WB`; unchanged"),
			t(l1S, network.OpInvPrv, "stale termination for a line since re-acquired (the directory collects our episode response before any re-grant, so this does not arise in practice)", "onInvPrv", "`Ctrl_WB`, copy untouched"),
			t(l1E, network.OpInvPrv, "stale termination for a line since re-acquired", "onInvPrv", "`Ctrl_WB`, copy untouched"),
			t(l1M, network.OpInvPrv, "stale termination for a line since re-acquired", "onInvPrv", "`Ctrl_WB`, copy untouched"),

			// WBAck — legal everywhere: the WB-buffer slot is freed if one
			// exists (an MSHR can coexist after fig. 11/12 reissues; a stale
			// ack after a re-grant is a no-op).
			t(l1I, network.OpWBAck, "", "onWBAck", "clear the WB-buffer entry (no-op if already gone)"),
			t(l1S, network.OpWBAck, "", "onWBAck", "clear the stale WB-buffer entry"),
			t(l1E, network.OpWBAck, "", "onWBAck", "clear the stale WB-buffer entry"),
			t(l1M, network.OpWBAck, "", "onWBAck", "clear the stale WB-buffer entry"),
			t(l1PRV, network.OpWBAck, "", "onWBAck", "clear the stale WB-buffer entry"),
			t(l1ISD, network.OpWBAck, "", "onWBAck", "clear the fig. 11/12 WB-buffer entry; the reissued transaction lives on"),
			t(l1IMAD, network.OpWBAck, "", "onWBAck", "clear the fig. 11/12 WB-buffer entry; the reissued transaction lives on"),
			t(l1SMA, network.OpWBAck, "", "onWBAck", "clear the fig. 12 WB-buffer entry; the transaction lives on"),
			t(l1PRVCHK, network.OpWBAck, "", "onWBAck", "clear the WB-buffer entry"),
			t(l1WB, network.OpWBAck, "", "onWBAck", "writeback accepted → `L1.I`"),
		},
		Impossible: cat(
			imps(network.OpData, noTxn, l1I, l1S, l1E, l1M, l1PRV, l1WB),
			imps(network.OpDataExcl, noTxn, l1I, l1S, l1E, l1M, l1PRV, l1WB),
			imps(network.OpDataPrv, noTxn, l1I, l1S, l1E, l1M, l1PRV, l1WB),
			imps(network.OpInvAck, "invalidation acks are only collected by an exclusive-grant transaction", l1I, l1S, l1E, l1M, l1PRV, l1WB),
			imps(network.OpInvAck, "a `GetS` collects no invalidation acks", l1ISD),
			imps(network.OpInvAck, "a CHK collects no invalidation acks", l1PRVCHK),
			imps(network.OpUpgradeAck, noUpg, l1I, l1S, l1E, l1M, l1PRV, l1ISD, l1IMAD, l1PRVCHK, l1WB),
			imps(network.OpUpgradeNack, noUpg, l1I, l1S, l1E, l1M, l1PRV, l1ISD, l1IMAD, l1PRVCHK, l1WB),
			imps(network.OpUpgAckPrv, noUpg, l1I, l1S, l1E, l1M, l1PRV, l1ISD, l1IMAD, l1PRVCHK, l1WB),
			imps(network.OpAckPrv, "answers only an outstanding `GetCHK`/`GetXCHK`", l1I, l1S, l1E, l1M, l1PRV, l1ISD, l1IMAD, l1SMA, l1WB),
			imps(network.OpFwdGetS, "the directory forwarded to a core with no copy, no WB entry and no transaction — its exact owner field (§6.3) rules this out", l1I),
			imps(network.OpFwdGetX, "the directory forwarded to a core with no copy, no WB entry and no transaction — its exact owner field (§6.3) rules this out", l1I),
			imps(network.OpInv, "the directory never plain-invalidates a PRV copy: episodes end with `Inv_PRV`", l1PRV),
			imps(network.OpTRPrv, "a PRV entry never re-initiates privatization", l1PRV),
		),
	}
	return f
}

// L1Core documents the core-initiated transitions (§3.3); these are driven
// by the core's access stream, not by network dispatch, so they carry no
// action binding.
type CoreTransition struct {
	From, Trigger, Action, To string
}

// L1CoreTransitions returns the access-driven transition table.
func L1CoreTransitions() []CoreTransition {
	return []CoreTransition{
		{"`L1.I`", "load", "send `GetS`", "`L1.IS_D`"},
		{"`L1.I`", "store/RMW/reduce", "send `GetX`", "`L1.IM_AD`"},
		{"`L1.S`", "load", "hit", "`L1.S`"},
		{"`L1.S`", "store", "send `Upgrade`", "`L1.SM_A`"},
		{"`L1.E`", "load", "hit", "`L1.E`"},
		{"`L1.E`", "store", "silent upgrade", "`L1.M`"},
		{"`L1.M`", "any", "hit", "`L1.M`"},
		{"`L1.PRV`", "access with PAM byte permission", "hit (records bytes in PAM)", "`L1.PRV`"},
		{"`L1.PRV`", "access without byte permission", "send `GetCHK`/`GetXCHK`", "`L1.PRV_CHK` (line stays `L1.PRV`)"},
	}
}

// L1Evictions returns the eviction table (last private level; with an L2 the
// L1 eviction is a silent demotion first).
func L1Evictions() []CoreTransition {
	return []CoreTransition{
		{"`L1.S`", "eviction", "silent drop (§IV); ship PAM entry if `SEND_MD`", "`L1.I`"},
		{"`L1.E`", "eviction", "clean `WB` (keeps the directory's owner field exact, §6.3), wait `WBAck`", "`L1.I`"},
		{"`L1.M`", "eviction", "dirty `WB`, wait `WBAck`", "`L1.I`"},
		{"`L1.PRV`", "eviction", "`Prv_WB` with `Data`+`Base`, drop PAM, wait `WBAck`", "`L1.I`"},
	}
}

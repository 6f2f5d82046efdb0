package spec

import "fscoherence/internal/network"

// Messages returns the complete opcode table in enum order. Class and wire
// size are not stored here — they come from network.ClassOf and
// network.SizeOf, so the rendered table can never disagree with the
// accounting the simulator actually performs (spec_test.go walks the enum to
// keep the list complete).
func Messages() []Message {
	return []Message{
		{network.OpGetS, "L1 → dir", "Read miss (paper: *Get*). Carries the touched byte range (`TouchedOff`/`TouchedLen`, §V-A)."},
		{network.OpGetX, "L1 → dir", "Write miss (read-exclusive)."},
		{network.OpUpgrade, "L1 → dir", "`L1.S` → `L1.M` permission request; no data needed."},
		{network.OpFwdGetS, "dir → owner", "Intervention: serve a read, downgrade to `L1.S`."},
		{network.OpFwdGetX, "dir → owner", "Intervention: transfer ownership, invalidate."},
		{network.OpInv, "dir → sharer", "Invalidate an S copy. `Requestor` names who collects the `InvAck`; `ToOwner` marks an LLC-inclusion recall addressed to the E/M owner (data expected back)."},
		{network.OpInvAck, "sharer → requestor (or dir)", "Invalidation acknowledgment, counted against `AckCount`."},
		{network.OpData, "dir/owner → L1", "Block granting `L1.S`."},
		{network.OpDataExcl, "dir/owner → L1", "Block granting `L1.E` (from dir, no other copies) or `L1.M` (`Dirty`, 3-hop from old owner). `AckCount` pending acks."},
		{network.OpDataToDir, "owner → dir", "Owner's copy refreshing the LLC on `Fwd_GetS`/`TR_PRV`."},
		{network.OpXferOwnerAck, "owner → dir", "Ownership transferred on `Fwd_GetX`."},
		{network.OpUpgradeAck, "dir → L1", "Upgrade granted; `AckCount` third-party acks to collect."},
		{network.OpUpgradeNack, "dir → L1", "Upgrade raced with an invalidation; drop S copy and reissue as `GetX`."},
		{network.OpWB, "L1 → dir", "Writeback of an evicted E/M block (`Dirty` for M). Clean-E writebacks are **not** silent — see §6.3."},
		{network.OpWBAck, "dir → L1", "Writeback accepted; frees the WB-buffer slot."},
		{network.OpFwdNack, "—", "Defined but never sent: the \"forwarded request missed\" case is handled by serving interventions from the writeback buffer (§6.4), so this opcode is kept only for completeness with classic MESI specs."},
		{network.OpRepMD, "L1 → dir", "FSDetect PAM entry (read/write bit-vectors `MDRead`/`MDWrite`, §IV). `HasCopy` on TR_PRV responses marks the sender as a joining PRV sharer."},
		{network.OpMDPhantom, "L1 → dir", "Dataless response when `REQ_MD` was set but the PAM entry is gone (§V-D phantom messages)."},
		{network.OpTRPrv, "dir → sharers/owner", "Privatization is starting; receivers move to `L1.PRV`, ship their PAM entry, the owner also returns `DataToDir` (§V-A)."},
		{network.OpDataPrv, "dir → L1", "Private copy granted; enter `L1.PRV` and snapshot the episode base."},
		{network.OpGetCHK, "L1 → dir", "FSLite byte-grain *read* permission check for a `L1.PRV` block (§V-B)."},
		{network.OpGetXCHK, "L1 → dir", "FSLite byte-grain *write* permission check for a `L1.PRV` block."},
		{network.OpAckPrv, "dir → L1", "CHK granted (no byte conflict)."},
		{network.OpUpgAckPrv, "dir → L1", "Upgrade granted *with* privatization (fig. 12): the requestor's line is already `L1.PRV` via a preceding `TR_PRV`."},
		{network.OpInvPrv, "dir → PRV sharer", "Terminate the privatized episode; the copy is written back for byte-merging (§V-C)."},
		{network.OpPrvWB, "L1 → dir", "Privatized copy returned for merging. Carries both the current block (`Data`) and the episode-entry snapshot (`Base`) so reduction words merge as deltas (§VII)."},
		{network.OpCtrlWB, "L1 → dir", "Dataless response to `Inv_PRV` when no copy is held."},
	}
}

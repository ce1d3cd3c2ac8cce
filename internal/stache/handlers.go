package stache

import (
	"fmt"
	"math/bits"

	"github.com/tempest-sim/tempest/internal/mem"
	"github.com/tempest-sim/tempest/internal/network"
	"github.com/tempest-sim/tempest/internal/typhoon"
)

// Virtual-network aliases: coherence requests ride the low-priority
// network, data and acknowledgements the high-priority one (§5.1).
const (
	netRequest = network.VNetRequest
	netReply   = network.VNetReply
)

// dirAt resolves the home-side directory entry for a block-aligned va on
// np's node, charging one NP data-cache reference for the lookup. A home
// page gets its directory here, on first use; until then every block is
// Idle, which is what a fresh directory holds.
func (st *Protocol) dirAt(np *typhoon.NP, va mem.VA) (*blockDir, *mem.Frame, mem.PA) {
	pa, _, ok := np.Translate(va)
	if !ok {
		panic(fmt.Sprintf("stache: home directory access to unmapped %#x on node %d", va, np.Node()))
	}
	frame := np.Mem().Frame(pa)
	hd, ok := frame.User.(*homeDir)
	if !ok {
		if frame.User != nil || frame.Home != np.Node() {
			panic(fmt.Sprintf("stache: %#x on node %d is not a home page", va, np.Node()))
		}
		hd = newHomeDir(np.Mem().BlocksPerPage())
		frame.User = hd
	}
	bi := int(va.PageOffset()) / st.bs
	synth := dirAddr(np.Node(), pa.FrameBase().Offset(), bi)
	np.MemRef(synth, false)
	return &hd.blocks[bi], frame, synth
}

// --- Requester side ---

// remoteBlockFault is the stache-page block-access-fault handler (§3):
// retrieve the home node ID from the page's cached state, mark the block
// Busy, send the appropriate request, and terminate (the data-arrival
// handler restarts the thread).
func (st *Protocol) remoteBlockFault(np *typhoon.NP, f typhoon.Fault) {
	ns := st.per[np.Node()]
	if ns.pendingValid {
		panic(fmt.Sprintf("stache: node %d fault on %#x with fault already pending on %#x",
			np.Node(), f.VA, ns.pendingVA))
	}
	st.per[np.Node()].hot.remoteFaults++
	va := st.BlockBase(f.VA)
	home := np.FrameOf(f.VA).Home

	if ns.prefetching[va] {
		// The block is already in flight from a prefetch (the fault's
		// recorded tag may predate the prefetch handler: an earlier
		// queue entry — e.g. a check-in — can have changed the tag
		// between the bus nack and this dispatch): just record the
		// suspended thread; the data arrival resumes it.
		ns.pendingValid = true
		ns.pendingVA = va
		ns.pendingWrite = f.Write
		ns.pendingUpgrade = false
		np.Charge(2)
		return
	}

	kind := HGetS
	upgrade := false
	if f.Write {
		if f.Tag == mem.TagReadOnly {
			kind = HUpgrade
			upgrade = true
		} else {
			kind = HGetX
		}
	}
	ns.pendingValid = true
	ns.pendingVA = va
	ns.pendingWrite = f.Write
	ns.pendingUpgrade = upgrade

	np.SetTag(va, mem.TagBusy)
	np.Charge(costRequestExtra)
	np.SendRequest(home, kind, []uint64{uint64(va)}, nil)
}

// handleDataRO installs a read-only copy and restarts the thread.
func (st *Protocol) handleDataRO(np *typhoon.NP, pkt *network.Packet) {
	st.completeFill(np, pkt, mem.TagReadOnly, true)
}

// handleDataRW installs a writable copy and restarts the thread.
func (st *Protocol) handleDataRW(np *typhoon.NP, pkt *network.Packet) {
	st.completeFill(np, pkt, mem.TagReadWrite, true)
}

// handleUpgAck grants write permission on the copy already held.
func (st *Protocol) handleUpgAck(np *typhoon.NP, pkt *network.Packet) {
	st.completeFill(np, pkt, mem.TagReadWrite, false)
}

func (st *Protocol) completeFill(np *typhoon.NP, pkt *network.Packet, tag mem.Tag, hasData bool) {
	va := mem.VA(pkt.Args[0])
	ns := st.per[np.Node()]
	if ns.orphans[va] > 0 {
		// Reply to a request whose page was replaced: consume it and
		// return the residency the home just granted.
		st.consumeOrphan(np, va, ns)
		return
	}
	if !ns.pendingValid || ns.pendingVA != va {
		if hasData && st.prefetchFill(np, pkt, tag) {
			return
		}
		panic(fmt.Sprintf("stache: node %d data reply (handler %d) for %#x without matching pending fault",
			np.Node(), pkt.Handler, va))
	}
	delete(ns.prefetching, va) // a demand fault absorbed the prefetch
	delete(ns.wbOutstanding, va)
	if hasData {
		np.ForceWriteBlock(va, pkt.Data)
	}
	np.SetTag(va, tag)
	ns.pendingValid = false
	np.Charge(costDataArriveExtra)
	np.Resume(np.Proc())
}

// handleNack retries the pending request after the home reported a busy
// block.
func (st *Protocol) handleNack(np *typhoon.NP, pkt *network.Packet) {
	va := mem.VA(pkt.Args[0])
	ns := st.per[np.Node()]
	if ns.orphans[va] > 0 {
		// NACK for an orphaned request: nothing to retry, and the home
		// granted nothing, so no residency to return.
		ns.orphans[va]--
		if ns.orphans[va] == 0 {
			delete(ns.orphans, va)
		}
		np.Charge(1)
		return
	}
	if !ns.pendingValid || ns.pendingVA != va {
		if ns.prefetching[va] {
			// Retry the outstanding prefetch.
			st.per[np.Node()].hot.nacks++
			np.Charge(costNackExtra)
			np.SendRequest(np.FrameOf(va).Home, HGetS, []uint64{uint64(va)}, nil)
			return
		}
		np.Charge(1)
		return // stale: the fault completed through another path
	}
	st.per[np.Node()].hot.nacks++
	kind := HGetS
	if ns.pendingWrite {
		if ns.pendingUpgrade {
			kind = HUpgrade
		} else {
			kind = HGetX
		}
	}
	home := np.FrameOf(va).Home
	np.Charge(costNackExtra)
	np.SendRequest(home, kind, []uint64{uint64(va)}, nil)
}

// handleInval serves a home-initiated invalidation or downgrade at a
// sharer or owner.
func (st *Protocol) handleInval(np *typhoon.NP, pkt *network.Packet) {
	va := mem.VA(pkt.Args[0])
	kind := pkt.Args[1]
	ns := st.per[np.Node()]
	if ns.wbOutstanding[va] {
		// This node dropped the block and its writeback (dirty data or
		// a clean drop notice) is still in flight on the request
		// network. Because replies outrank requests at the receiver,
		// this acknowledgement could overtake it — so it carries had=2,
		// telling the home to wait for the writeback itself (which the
		// writeback handlers count as the acknowledgement).
		delete(ns.wbOutstanding, va)
		np.Charge(costInvalExtra)
		np.SendReply(pkt.Src, HInvalAck, []uint64{uint64(va), 2}, nil)
		return
	}
	_, _, ok := np.Translate(va)
	if !ok {
		// The page was replaced with no writeback outstanding (already
		// consumed): a stale directory entry. Acknowledge clean.
		np.Charge(costInvalExtra)
		np.SendReply(pkt.Src, HInvalAck, []uint64{uint64(va), 0}, nil)
		return
	}
	tag := np.ReadTag(va)
	var data []byte
	had := uint64(0)
	switch {
	case tag == mem.TagReadWrite:
		data = np.ForceReadBlockScratch(va)
		had = 1
		if kind == invalDowngrade {
			np.SetTag(va, mem.TagReadOnly)
			np.DowngradeCPU(va)
		} else {
			np.Invalidate(va)
		}
	case tag == mem.TagReadOnly:
		np.Invalidate(va)
	case tag == mem.TagBusy:
		// A fault on this block is in flight (e.g. an upgrade that lost
		// the race): our stale copy is already unusable; the pending
		// request will be answered with fresh data. Acknowledge clean
		// and leave the tag Busy.
	default:
		// Invalid: stale sharer entry (writeback raced); acknowledge.
	}
	np.Charge(costInvalExtra)
	np.SendReply(pkt.Src, HInvalAck, []uint64{uint64(va), had}, data)
}

// --- Home side ---

// handleGetS serves a read request at the home (§3).
func (st *Protocol) handleGetS(np *typhoon.NP, pkt *network.Packet) {
	va := mem.VA(pkt.Args[0])
	r := pkt.Src
	ns := st.per[np.Node()]
	ns.hot.getS++
	d, _, synth := st.dirAt(np, va)
	d.lastGetS = int8(r)
	if st.migratory && d.has(flagMigratory) && d.state != dirBusy {
		// The block migrates: grant the reader an exclusive copy so its
		// expected write needs no second round trip.
		ns.hot.migratoryGrants++
		st.grantWrite(np, va, d, synth, r, false)
		return
	}
	switch d.state {
	case dirIdle:
		np.DowngradeCPU(va)
		np.SetTag(va, mem.TagReadOnly)
		d.state = dirShared
		d.sharers.add(r)
		np.MemRef(synth, true)
		st.replyData(np, r, va, HDataRO)
	case dirShared:
		d.sharers.add(r)
		np.MemRef(synth, true)
		st.replyData(np, r, va, HDataRO)
	case dirExclusive:
		st.startRecall(np, va, d, synth, pendRemoteRead, r, false, invalDowngrade)
	case dirBusy:
		st.nack(np, r, va)
	}
}

// handleGetX serves a write request at the home.
func (st *Protocol) handleGetX(np *typhoon.NP, pkt *network.Packet) {
	st.per[np.Node()].hot.getX++
	st.serveExclusive(np, pkt, false)
}

// handleUpgrade serves an upgrade request: the requester holds (or held)
// a read-only copy and wants ownership.
func (st *Protocol) handleUpgrade(np *typhoon.NP, pkt *network.Packet) {
	st.per[np.Node()].hot.upgrades++
	st.serveExclusive(np, pkt, true)
}

func (st *Protocol) serveExclusive(np *typhoon.NP, pkt *network.Packet, upgrade bool) {
	va := mem.VA(pkt.Args[0])
	r := pkt.Src
	d, _, synth := st.dirAt(np, va)
	if st.migratory && upgrade && int8(r) == d.lastGetS &&
		d.state == dirShared && d.sharers.count() == 1 && d.sharers.has(r) {
		// Read-then-write by the sole reader: the migratory pattern.
		d.set(flagMigratory, true)
	}
	st.grantWrite(np, va, d, synth, r, upgrade)
}

// grantWrite serves remote node r's request for an exclusive copy: at
// once from Idle or from a Shared block r alone holds, after
// invalidating the other sharers or recalling the owner otherwise. An
// upgrade by a current sharer is answered without data.
func (st *Protocol) grantWrite(np *typhoon.NP, va mem.VA, d *blockDir, synth mem.PA, r int, upgrade bool) {
	switch d.state {
	case dirIdle:
		st.grantExclusive(np, va, d, synth, r, false)
	case dirShared:
		wasSharer := d.sharers.has(r)
		d.sharers.remove(r)
		if d.sharers.count() == 0 {
			st.grantExclusive(np, va, d, synth, r, upgrade && wasSharer)
			return
		}
		// Invalidate the other sharers, then grant.
		d.state = dirBusy
		d.pend = pendRemoteWrite
		d.pendReq = int8(r)
		d.set(flagPendUpgrade, upgrade && wasSharer)
		d.set(flagPendDirty, false)
		st.invalidateSharers(np, va, d)
		// The home's own copy dies now.
		np.Invalidate(va)
		np.MemRef(synth, true)
		np.Charge(costHomeRespExtra)
	case dirExclusive:
		st.startRecall(np, va, d, synth, pendRemoteWrite, r, upgrade, invalKill)
	case dirBusy:
		st.nack(np, r, va)
	}
}

// grantExclusive hands the block to remote node r: the home copy is
// invalidated and the data (or a data-less upgrade ack) sent.
func (st *Protocol) grantExclusive(np *typhoon.NP, va mem.VA, d *blockDir, synth mem.PA, r int, upgAck bool) {
	var data []byte
	if !upgAck {
		data = np.ForceReadBlockScratch(va)
	}
	np.Invalidate(va)
	d.state = dirExclusive
	d.owner = int8(r)
	d.sharers.clear()
	np.MemRef(synth, true)
	np.Charge(costHomeRespExtra)
	if upgAck {
		np.SendReply(r, HUpgAck, []uint64{uint64(va)}, nil)
		return
	}
	st.per[np.Node()].hot.dataReplies++
	np.SendReply(r, HDataRW, []uint64{uint64(va)}, data)
}

// replyData sends the home's current copy of va's block.
func (st *Protocol) replyData(np *typhoon.NP, r int, va mem.VA, handler uint32) {
	data := np.ForceReadBlockScratch(va)
	st.per[np.Node()].hot.dataReplies++
	np.Charge(costHomeRespExtra)
	np.SendReply(r, handler, []uint64{uint64(va)}, data)
}

// startRecall begins a Busy transaction that recalls (or downgrades) the
// remote owner's copy.
func (st *Protocol) startRecall(np *typhoon.NP, va mem.VA, d *blockDir, synth mem.PA, kind pendKind, req int, upgrade bool, inval uint64) {
	owner := int(d.owner)
	d.state = dirBusy
	d.pend = kind
	d.pendReq = int8(req)
	d.set(flagPendUpgrade, upgrade)
	d.set(flagPendDirty, false)
	d.pendOwner = -1
	if inval == invalDowngrade {
		d.pendOwner = int8(owner) // keeps a read-only copy
	}
	d.owner = -1
	d.waiting.clear()
	d.waiting.add(owner)
	np.MemRef(synth, true)
	st.per[np.Node()].hot.invalsSent++
	np.Charge(costHomeRespExtra)
	np.SendRequest(owner, HInval, []uint64{uint64(va), inval}, nil)
}

// startHomeInvalidate begins a Busy transaction invalidating all sharers
// on behalf of the home CPU's write fault.
func (st *Protocol) startHomeInvalidate(np *typhoon.NP, va mem.VA, d *blockDir, synth mem.PA) {
	d.state = dirBusy
	d.pend = pendHomeWrite
	d.pendReq = -1
	d.set(flagPendDirty, false)
	st.invalidateSharers(np, va, d)
	np.MemRef(synth, true)
	np.Charge(costHomeRespExtra)
}

// invalidateSharers sends every sharer of d a kill and moves it to the
// set of nodes the Busy transaction waits on, walking the sharers in
// place (sharerSet.each gives the order).
func (st *Protocol) invalidateSharers(np *typhoon.NP, va mem.VA, d *blockDir) {
	ns := st.per[np.Node()]
	d.waiting.clear()
	d.sharers.each(func(s int) {
		d.waiting.add(s)
		ns.hot.invalsSent++
		np.Charge(2)
		np.SendRequest(s, HInval, []uint64{uint64(va), invalKill}, nil)
	})
	d.sharers.clear()
}

// handleInvalAck collects one invalidation/downgrade acknowledgement.
func (st *Protocol) handleInvalAck(np *typhoon.NP, pkt *network.Packet) {
	va := mem.VA(pkt.Args[0])
	src := pkt.Src
	d, _, synth := st.dirAt(np, va)
	st.per[np.Node()].hot.acks++
	if pkt.Args[1] == 2 {
		// The target dropped the page before the invalidation arrived;
		// its in-flight writeback stands in for this acknowledgement
		// (handleWbDirty / handleWbClean complete the transaction).
		np.Charge(1)
		return
	}
	had := pkt.Args[1] == 1
	if d.state != dirBusy || !d.waiting.has(src) {
		// A writeback from src already satisfied this node's part.
		np.Charge(1)
		return
	}
	d.waiting.remove(src)
	if had {
		np.ForceWriteBlock(va, pkt.Data)
		d.set(flagPendDirty, true)
	}
	np.MemRef(synth, true)
	np.Charge(costAckExtra)
	if d.waiting.count() == 0 {
		st.completePend(np, va, d, synth)
	}
}

// completePend finishes a Busy transaction once every awaited node has
// answered.
func (st *Protocol) completePend(np *typhoon.NP, va mem.VA, d *blockDir, synth mem.PA) {
	ns := st.per[np.Node()]
	pend := d.pend
	d.pend = pendNone
	switch pend {
	case pendRemoteRead:
		r := int(d.pendReq)
		d.state = dirShared
		// The downgraded ex-owner keeps a read-only copy (unless its
		// writeback told us it dropped the page instead).
		if d.pendOwner >= 0 {
			d.sharers.add(int(d.pendOwner))
		}
		d.sharers.add(r)
		np.SetTag(va, mem.TagReadOnly)
		np.MemRef(synth, true)
		st.replyData(np, r, va, HDataRO)
	case pendRemoteWrite:
		r := int(d.pendReq)
		d.state = dirExclusive
		d.owner = d.pendReq
		d.sharers.clear()
		if st.migratory && d.has(flagMigratory) && !d.has(flagPendDirty) && !d.has(flagPendUpgrade) {
			// A migratory recall that came back clean means the block
			// is actually read-shared: stop migrating it.
			d.set(flagMigratory, false)
		}
		np.MemRef(synth, true)
		np.Charge(costHomeRespExtra)
		if d.has(flagPendUpgrade) {
			np.SendReply(r, HUpgAck, []uint64{uint64(va)}, nil)
		} else {
			data := np.ForceReadBlockScratch(va)
			ns.hot.dataReplies++
			np.SendReply(r, HDataRW, []uint64{uint64(va)}, data)
		}
	case pendHomeRead:
		d.state = dirShared
		if d.pendOwner >= 0 {
			d.sharers.add(int(d.pendOwner))
		}
		np.SetTag(va, mem.TagReadOnly)
		np.MemRef(synth, true)
		np.Charge(costDataArriveExtra)
		np.Resume(np.Proc())
	case pendHomeWrite:
		d.state = dirIdle
		d.owner = -1
		d.sharers.clear()
		np.SetTag(va, mem.TagReadWrite)
		np.MemRef(synth, true)
		np.Charge(costDataArriveExtra)
		np.Resume(np.Proc())
	default:
		panic(fmt.Sprintf("stache: completePend with no pending transaction for %#x", va))
	}
	d.pendOwner = -1
	d.waiting.clear()
	// A home CPU fault queued behind this transaction runs now.
	if ns.homePendingValid && st.BlockBase(ns.homePending.VA) == va {
		f := ns.homePending
		ns.homePendingValid = false
		st.homeBlockFault(np, f)
	}
}

// homeBlockFault serves the home CPU's own block access fault: directory
// work happens locally without request messages (§3).
func (st *Protocol) homeBlockFault(np *typhoon.NP, f typhoon.Fault) {
	st.per[np.Node()].hot.homeFaults++
	va := st.BlockBase(f.VA)
	d, _, synth := st.dirAt(np, va)
	switch d.state {
	case dirBusy:
		// A remote transaction is in flight; retry when it completes.
		ns := st.per[np.Node()]
		ns.homePendingValid = true
		ns.homePending = f
		np.Charge(2)
	case dirExclusive:
		kind := pendKind(pendHomeRead)
		inval := uint64(invalDowngrade)
		if f.Write {
			kind = pendHomeWrite
			inval = invalKill
		}
		st.startRecall(np, va, d, synth, kind, -1, false, inval)
	case dirShared:
		if !f.Write {
			// Read fault on a Shared block: tags were stale (e.g. the
			// last sharer left); fix up and resume.
			np.SetTag(va, mem.TagReadOnly)
			np.Charge(costDataArriveExtra)
			np.Resume(np.Proc())
			return
		}
		st.startHomeInvalidate(np, va, d, synth)
	case dirIdle:
		// No remote copies: the tag was simply left conservative.
		if f.Write {
			np.SetTag(va, mem.TagReadWrite)
		} else {
			np.SetTag(va, mem.TagReadOnly)
		}
		np.Charge(costDataArriveExtra)
		np.Resume(np.Proc())
	}
}

// handleWbDirty applies a replaced page's modified block at the home.
// The data is applied only when the directory still considers src a
// copy holder — a writeback from a node that has since been invalidated
// and re-granted would otherwise clobber newer data.
func (st *Protocol) handleWbDirty(np *typhoon.NP, pkt *network.Packet) {
	va := mem.VA(pkt.Args[0])
	src := pkt.Src
	d, _, synth := st.dirAt(np, va)
	current := (d.state == dirBusy && d.waiting.has(src)) ||
		(d.state == dirExclusive && int(d.owner) == src)
	if current {
		np.ForceWriteBlock(va, pkt.Data)
	}
	np.MemRef(synth, true)
	np.Charge(costWbExtra)
	switch {
	case d.state == dirBusy && d.waiting.has(src):
		// The writeback crossed our invalidation; it carries the data
		// and stands in for the acknowledgement. The writer dropped its
		// copy, so it must not be re-added as a sharer.
		if d.pendOwner == int8(src) {
			d.pendOwner = -1
		}
		d.waiting.remove(src)
		if d.waiting.count() == 0 {
			st.completePend(np, va, d, synth)
		}
	case d.state == dirExclusive && int(d.owner) == src:
		d.owner = -1
		d.state = dirIdle
		np.SetTag(va, mem.TagReadWrite)
	case d.state == dirShared:
		d.sharers.remove(src)
		if d.sharers.count() == 0 {
			d.state = dirIdle
		}
	}
}

// handleWbClean drops a replaced page's clean residency at the home: one
// message carries a bit mask of the dropped blocks.
func (st *Protocol) handleWbClean(np *typhoon.NP, pkt *network.Packet) {
	pageVA := mem.VA(pkt.Args[0])
	masks := pkt.Args[1:]
	src := pkt.Src
	for w, mask := range masks {
		for mask != 0 {
			bit := bits.TrailingZeros64(mask)
			mask &^= 1 << bit
			bi := w*64 + bit
			va := pageVA + mem.VA(bi*st.bs)
			d, _, synth := st.dirAt(np, va)
			np.Charge(2)
			switch {
			case d.state == dirBusy && d.waiting.has(src):
				// Clean drop doubles as the acknowledgement; the home
				// copy is already current.
				if d.pendOwner == int8(src) {
					d.pendOwner = -1
				}
				d.waiting.remove(src)
				np.MemRef(synth, true)
				if d.waiting.count() == 0 {
					st.completePend(np, va, d, synth)
				}
			case d.state == dirShared:
				d.sharers.remove(src)
				np.MemRef(synth, true)
				if d.sharers.count() == 0 {
					d.state = dirIdle
				}
			case d.state == dirExclusive && int(d.owner) == src:
				// A migratory-granted copy dropped without ever being
				// written (orphaned reply): the home copy is current.
				d.owner = -1
				d.state = dirIdle
				np.SetTag(va, mem.TagReadWrite)
				np.MemRef(synth, true)
			}
		}
	}
}

// consumeOrphan drops one orphaned reply for va and tells the home this
// node holds no copy (a one-block clean drop; the orphaned requester
// never observed the data, so the home copy is current).
func (st *Protocol) consumeOrphan(np *typhoon.NP, va mem.VA, ns *nodeState) {
	ns.orphans[va]--
	if ns.orphans[va] == 0 {
		delete(ns.orphans, va)
	}
	home := st.m.VM.Home(va)
	bi := int(va.PageOffset()) / st.bs
	masks := make([]uint64, bi/64+1)
	masks[bi/64] = 1 << (bi % 64)
	np.Charge(4)
	np.SendRequest(home, HWbClean, append([]uint64{uint64(va.PageBase())}, masks...), nil)
}

// nack tells the requester to retry later.
func (st *Protocol) nack(np *typhoon.NP, r int, va mem.VA) {
	st.per[np.Node()].hot.nacks++
	np.Charge(2)
	np.SendReply(r, HNack, []uint64{uint64(va)}, nil)
}

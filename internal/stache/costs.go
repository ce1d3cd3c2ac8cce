// Package stache implements the paper's user-level transparent
// shared-memory library (§3): local DRAM managed as a large, fully
// associative cache for remote data, with page-granularity allocation and
// block-granularity coherence. The coherence protocol is the paper's
// default: an invalidation protocol with a LimitLESS-like software
// directory (two bytes of state plus six one-byte pointers per block,
// overflowing to a bit vector), implemented entirely in user-level NP
// handlers through the Tempest interface.
package stache

// Handler instruction budgets. The paper reports best-case NP path
// lengths of 14 instructions to request a missing block, 30 for the home
// node to respond with data, and 20 when the data arrives at the
// requester (§6). Each handler's total cost is its "extra" budget below
// plus the mechanical operations it performs (tag writes, block
// transfers, send-queue stores), whose costs are defined in
// internal/typhoon. TestHandlerBudgetsMatchPaper pins the sums.
const (
	// costRequestExtra: block-fault handler bookkeeping beyond the tag
	// write and the request send. Total best-case path: 14.
	costRequestExtra = 7
	// costHomeRespExtra: home GETS/GETX handler bookkeeping beyond two
	// directory references, the home tag write, the block read, and the
	// data-reply send. Total best-case path: 30.
	costHomeRespExtra = 13
	// costDataArriveExtra: data-arrival handler bookkeeping beyond the
	// block write, the tag write, and the resume. Total best-case
	// path: 20.
	costDataArriveExtra = 12

	// costInvalExtra: sharer-side invalidate/downgrade handler.
	costInvalExtra = 8
	// costAckExtra: home-side invalidation-acknowledgement handler.
	costAckExtra = 6
	// costNackExtra: requester-side NACK handler (rebuild and resend).
	costNackExtra = 4
	// costWbExtra: home-side writeback application.
	costWbExtra = 8

	// costPageFault: the user-level page-fault handler on the CPU —
	// trap entry/exit, distributed-map lookup with local caching, frame
	// allocation, page map, tag initialisation (§3).
	costPageFault = 120
	// costReplacePageBase / costReplacePerBlock: flushing a victim
	// stache page (FIFO replacement, §3).
	costReplacePageBase    = 60
	costReplacePerBlock    = 2
	costReplaceDirtyPerBlk = 6
)

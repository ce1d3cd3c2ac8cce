package dirnnb

import (
	"fmt"

	"github.com/tempest-sim/tempest/internal/mem"
)

// Error is a structured DirNNB failure — a user-reachable condition (a
// page fault, which means an access outside the shared segments or to
// an unmapped shared page) or a protocol violation (a message the
// directory cannot accept). Protocol code panics with an *Error; the
// engine's context recovery wraps (not flattens) error values, so
// harness.Run can errors.As the failure out of the run error and report
// it per sweep point instead of crashing a whole sweep.
type Error struct {
	// Op names the failing operation or handler: "page-fault"; "ack" (an
	// ack for a txn id not in flight: unknown, or already completed),
	// "dispatch" (an unknown handler number), or "miss" (a processor
	// woken from a miss without a fill). Msg names the txn id, block or
	// handler number.
	Op string
	// Node is the node the failure occurred on.
	Node int
	// VA is the faulting virtual address, when the failure has one.
	VA mem.VA
	// Msg describes the condition.
	Msg string
}

func (e *Error) Error() string {
	if e.VA != 0 {
		return fmt.Sprintf("dirnnb: %s on node %d (va %#x): %s", e.Op, e.Node, e.VA, e.Msg)
	}
	return fmt.Sprintf("dirnnb: %s on node %d: %s", e.Op, e.Node, e.Msg)
}

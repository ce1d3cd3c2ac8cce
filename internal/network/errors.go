package network

import "fmt"

// Error is a structured network failure on a user-reachable condition —
// an oversized payload (protocol code must packetise larger transfers),
// a send from or to a node outside the machine, or a SendAfter delay
// produced by negative arithmetic that wrapped to a huge unsigned value
// (e.g. bad -link-bw math in a config sweep). Send panics with an
// *Error; the engine's context and event recovery wraps (not flattens)
// error values, so the harness can errors.As the failure out of the run
// error and report it per sweep point instead of crashing a whole sweep
// — the same contract as *dirnnb.Error.
type Error struct {
	// Op names the failing operation: "send" or "send-after".
	Op string
	// Node is the sending node.
	Node int
	// Msg describes the condition.
	Msg string
}

func (e *Error) Error() string {
	return fmt.Sprintf("network: %s on node %d: %s", e.Op, e.Node, e.Msg)
}

// Package fleet distributes sweep points across worker processes. The
// protocol has one exchange — a lease answered by a result or a fail —
// and it runs on both links: a client leases points to a coordinator,
// which leases them to workers, one lease per worker connection at a
// time. The coordinator heartbeats the leases, reassigns points on
// worker loss or lease expiry, retries with capped backoff,
// deduplicates double-completions (first valid result per point key
// wins), and verifies every remote result against the result cache's
// canonical key/digest machinery before accepting it, as the client
// does again. Coordinator and Client run a batch exactly as
// harness.LocalExecutor does — bit-identically, by the repo's
// determinism guarantee. No binary links this package: it stays for
// the benchmark's fleet_warm workload.
package fleet

import "fmt"

// Error is the package's structured error: every protocol violation,
// verification failure, and exhausted retry surfaces as one, naming
// the operation, the peer, and the sweep point involved.
type Error struct {
	// Op is the failing operation ("decode", "handshake", "lease",
	// "verify", "submit", ...).
	Op string
	// Worker names the peer connection when one is involved.
	Worker string
	// Point labels the sweep point when one is involved.
	Point string
	// Msg describes the failure.
	Msg string
}

func (e *Error) Error() string {
	s := "fleet: " + e.Op
	if e.Worker != "" {
		s += " " + e.Worker
	}
	if e.Point != "" {
		s += " [" + e.Point + "]"
	}
	return s + ": " + e.Msg
}

// errf builds an *Error in place.
func errf(op, worker, point, format string, args ...any) *Error {
	return &Error{Op: op, Worker: worker, Point: point, Msg: fmt.Sprintf(format, args...)}
}

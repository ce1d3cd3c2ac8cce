package conform

import (
	"fmt"
	"strings"

	"github.com/tempest-sim/tempest/internal/mem"
	"github.com/tempest-sim/tempest/internal/trace"
)

const maxTagErrs = 8

// allowedTagEdges is the per-block access-tag state machine the Typhoon
// protocols (Stache, Blizzard-Stache, EM3D-update) are allowed to walk,
// indexed [from][to]. It is the MSI protocol of §3 plus Busy as the
// pending state:
//
//   - Invalid → Busy:    a fault or prefetch goes pending
//   - Busy → ReadOnly:   shared data arrives
//   - Busy → ReadWrite:  exclusive data or an upgrade ack arrives
//   - Busy → Invalid:    a NACK bounces the request, or an orphaned
//     reply lands after its page was replaced
//   - ReadOnly → Busy:   an upgrade goes pending
//   - ReadOnly → ReadWrite: the home grants an upgrade in place (a
//     migratory or home-local fast path)
//   - ReadOnly → Invalid:  invalidation or replacement
//   - ReadWrite → ReadOnly: downgrade (another reader's copy request)
//   - ReadWrite → Invalid:  invalidation, writeback, or replacement
//   - Invalid → ReadOnly / ReadWrite: a block filled without a visible
//     pending mark (the update protocol's pushed updates, and home-side
//     restores after a writeback)
//
// Self-loops (retagging a block with the tag it already has) are not
// legal: every traced SetTag/Invalidate must change the state, so a
// protocol that spins retagging shows up here.
var allowedTagEdges = [4][4]bool{
	mem.TagInvalid:   {mem.TagReadOnly: true, mem.TagReadWrite: true, mem.TagBusy: true},
	mem.TagReadOnly:  {mem.TagInvalid: true, mem.TagReadWrite: true, mem.TagBusy: true},
	mem.TagReadWrite: {mem.TagInvalid: true, mem.TagReadOnly: true},
	mem.TagBusy:      {mem.TagInvalid: true, mem.TagReadOnly: true, mem.TagReadWrite: true},
}

// CheckTagMachine validates a stream's per-block tag history — every
// KTagChange, in trace order, keyed by (node, block) — against
// allowedTagEdges, and demands that no block is left pending (Busy)
// when the run ends. The trace carries only the new tag, so the first
// event of each block seeds its state unchecked. DirNNB streams have no
// tag events (its MSI state lives in the hardware directory, pinned by
// the stream's protocol-state digest instead) and pass vacuously.
func CheckTagMachine(s *Stream) error {
	type key struct {
		node int
		va   mem.VA
	}
	last := make(map[key]mem.Tag)
	order := make([]key, 0, 256) // deterministic reporting order
	var errs []string
	for i, ev := range s.Events {
		if ev.Kind != trace.KTagChange {
			continue
		}
		if ev.Aux >= 4 {
			return fmt.Errorf("conform: tag check: event %d carries tag %d outside the MSI machine", i, ev.Aux)
		}
		to := mem.Tag(ev.Aux)
		k := key{node: ev.Node, va: ev.VA}
		from, seen := last[k]
		if !seen {
			order = append(order, k)
		} else if !allowedTagEdges[from][to] {
			if len(errs) < maxTagErrs {
				errs = append(errs, fmt.Sprintf("event %d: node %d block %#x: illegal tag transition %v -> %v at cycle %d",
					i, ev.Node, ev.VA, from, to, ev.T))
			}
		}
		last[k] = to
	}
	for _, k := range order {
		if last[k] == mem.TagBusy {
			errs = append(errs, fmt.Sprintf("node %d block %#x: left Busy at end of run (unresolved transaction)", k.node, k.va))
			if len(errs) >= maxTagErrs {
				break
			}
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("conform: tag check %s-%s: %d violations:\n  %s", s.App, s.System, len(errs), strings.Join(errs, "\n  "))
	}
	return nil
}

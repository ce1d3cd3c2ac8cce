package typhoon

import (
	"github.com/tempest-sim/tempest/internal/mem"
	"github.com/tempest-sim/tempest/internal/stats"
)

// StateDigest folds the system's fine-grain access-control state — every
// node's mapped shared pages with their page mode and per-block tags —
// into one hash. Segments, nodes and pages are visited in a fixed order,
// so equal digests mean equal tag state.
// It must only be called while the machine is not running (protocol
// state is node-local mid-run); the conformance suite records it after
// Run as part of a trace's footer.
func (s *System) StateDigest() uint64 {
	d := stats.NewDigest()
	for _, seg := range s.M.VM.Segments() {
		for node := 0; node < s.M.Cfg.Nodes; node++ {
			pt := s.M.VM.Table(node)
			for va := seg.Base.PageBase(); va < seg.End(); va += mem.PageSize {
				pte, ok := pt.Lookup(va.VPN())
				if !ok {
					continue
				}
				frame := s.M.Mems[pte.PA.Node()].Frame(pte.PA)
				d.Word(uint64(node))
				d.Word(uint64(va))
				d.Word(uint64(frame.Mode))
				for _, t := range frame.Tags {
					d.Word(uint64(t))
				}
			}
		}
	}
	return uint64(d)
}

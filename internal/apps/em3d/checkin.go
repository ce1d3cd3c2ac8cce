package em3d

import (
	"github.com/tempest-sim/tempest/internal/apps"
	"github.com/tempest-sim/tempest/internal/machine"
	"github.com/tempest-sim/tempest/internal/mem"
	"github.com/tempest-sim/tempest/internal/stache"
)

// CheckInApp is the paper's §4 middle option: the plain shared-memory
// EM3D annotated with check-in operations. After each phase a processor
// checks in the remote blocks it consumed, so the owners' next writes
// need no invalidation/acknowledgement round trips — at the price of
// refetching the blocks next iteration. The paper: check-ins "cut
// communication and latency by replacing the invalidation/acknowledgment
// with an asynchronous notification, but cannot attain the minimum of
// one message" the custom update protocol reaches.
type CheckInApp struct {
	*App
	st *stache.Protocol

	// Per processor: the unique remote blocks its E phase reads (H
	// values) and its H phase reads (E values).
	remoteH, remoteE [][]mem.VA
}

// NewCheckInApp pairs an EM3D instance with the Stache protocol whose
// CheckIn operation it annotates.
func NewCheckInApp(cfg Config, st *stache.Protocol) *CheckInApp {
	return &CheckInApp{App: New(cfg), st: st}
}

// Name implements apps.App.
func (ca *CheckInApp) Name() string { return "em3d-checkin" }

// Setup implements apps.App.
func (ca *CheckInApp) Setup(m *machine.Machine) {
	ca.App.Setup(m)
	ca.remoteH = make([][]mem.VA, ca.nodes)
	ca.remoteE = make([][]mem.VA, ca.nodes)
	for p := 0; p < ca.nodes; p++ {
		ca.remoteH[p] = remoteBlocks(m, ca.hVals, ca.eAdj[p], p)
		ca.remoteE[p] = remoteBlocks(m, ca.eVals, ca.hAdj[p], p)
	}
}

// remoteBlocks lists, in first-read order, the distinct blocks not homed
// on processor p that hold the targets adj indexes.
func remoteBlocks(m *machine.Machine, targets *apps.DistArray, adj []int32, p int) []mem.VA {
	var blocks []mem.VA
	seen := map[mem.VA]bool{}
	for _, idx := range adj {
		b := targets.AtGlobal(int(idx)) &^ mem.VA(m.Cfg.BlockSize-1)
		if !seen[b] && m.VM.Home(b) != p {
			seen[b] = true
			blocks = append(blocks, b)
		}
	}
	return blocks
}

// Body implements apps.App.
func (ca *CheckInApp) Body(p *machine.Proc) {
	pid := p.ID()
	ca.initLocal(p)
	p.Barrier()
	p.ROIStart()
	for it := 0; it < ca.cfg.Iters; it++ {
		ca.phase(p, ca.eVals, ca.hVals, ca.eAdj[pid], ca.eW)
		// Done with the H copies for this iteration: hand them back so
		// the owners' updates need no invalidations.
		for _, b := range ca.remoteH[pid] {
			ca.st.CheckIn(p, b)
		}
		p.Barrier()
		ca.phase(p, ca.hVals, ca.eVals, ca.hAdj[pid], ca.hW)
		for _, b := range ca.remoteE[pid] {
			ca.st.CheckIn(p, b)
		}
		p.Barrier()
	}
	p.ROIEnd()
}

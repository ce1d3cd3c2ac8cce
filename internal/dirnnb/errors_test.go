package dirnnb

import (
	"errors"
	"testing"

	"github.com/tempest-sim/tempest/internal/machine"
	"github.com/tempest-sim/tempest/internal/mem"
	"github.com/tempest-sim/tempest/internal/network"
	"github.com/tempest-sim/tempest/internal/vm"
)

// TestProtocolViolationsAreNamedErrors forges each packet the directory
// must refuse and checks that the run fails with a *Error naming the
// node and the operation — not a nil dereference or a bare string
// panic.
func TestProtocolViolationsAreNamedErrors(t *testing.T) {
	cases := []struct {
		name   string
		op     string
		node   int
		va     mem.VA
		forged func(m *machine.Machine, seg *vm.Segment) func(p *machine.Proc)
	}{
		{"unknown handler", "dispatch", 1, 0, func(m *machine.Machine, _ *vm.Segment) func(p *machine.Proc) {
			m.Net.Send(&network.Packet{Src: 0, Dst: 1, VNet: network.VNetRequest, Handler: 99})
			return func(p *machine.Proc) {}
		}},
		{"former claim ID", "dispatch", 1, 0, func(m *machine.Machine, _ *vm.Segment) func(p *machine.Proc) {
			// The number the first-touch claim request had: the directory
			// no longer has a handler behind it.
			m.Net.Send(&network.Packet{Src: 0, Dst: 1, VNet: network.VNetRequest,
				Handler: hEvict + 1, Args: []uint64{0x1234}})
			return func(p *machine.Proc) {}
		}},
		{"ack for an unknown txn", "ack", 0, 0, func(m *machine.Machine, _ *vm.Segment) func(p *machine.Proc) {
			m.Net.Send(&network.Packet{Src: 1, Dst: 0, VNet: network.VNetReply,
				Handler: hAck, Args: []uint64{7}})
			return func(p *machine.Proc) {}
		}},
		{"second ack for a completed txn", "ack", 0, 0, func(m *machine.Machine, seg *vm.Segment) func(p *machine.Proc) {
			return func(p *machine.Proc) {
				if p.ID() == 1 {
					p.WriteU64(seg.At(0), 1) // node 1 owns the block
				}
				p.Barrier()
				if p.ID() == 0 {
					// The home's read recalls node 1's copy: txn 0 at node
					// 0, completed by node 1's ack and kept for reuse.
					p.ReadU64(seg.At(0))
				}
				p.Barrier()
				if p.ID() == 1 {
					m.Net.Send(&network.Packet{Src: 1, Dst: 0, VNet: network.VNetReply,
						Handler: hAck, Args: []uint64{0}})
				}
			}
		}},
		{"wake without a fill", "miss", 1, 0x40, func(m *machine.Machine, seg *vm.Segment) func(p *machine.Proc) {
			return func(p *machine.Proc) {
				switch p.ID() {
				case 0:
					// A stray wakeup while node 1 is parked on its remote
					// miss, long before the real reply.
					p.Ctx.Sleep(60)
					m.Procs[1].Ctx.Unpark(p.Ctx.Time())
				case 1:
					p.ReadU64(seg.At(0x48))
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, _ := newM(t, 2)
			seg := m.AllocShared("x", mem.PageSize, vm.OnNode{Node: 0}, vm.ModeUser)
			_, err := m.Run(tc.forged(m, seg))
			var derr *Error
			if !errors.As(err, &derr) {
				t.Fatalf("Run = %v, want a *dirnnb.Error", err)
			}
			want := tc.va
			if tc.op == "miss" {
				want += seg.Base
			}
			if derr.Op != tc.op || derr.Node != tc.node || derr.VA != want {
				t.Errorf("error %q: op %q node %d va %#x, want op %q node %d va %#x",
					derr, derr.Op, derr.Node, derr.VA, tc.op, tc.node, want)
			}
		})
	}
}

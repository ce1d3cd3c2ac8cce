package stache

import (
	"testing"

	"github.com/tempest-sim/tempest/internal/machine"
	"github.com/tempest-sim/tempest/internal/mem"
	"github.com/tempest-sim/tempest/internal/vm"
)

// settled runs a two-node machine to quiescence with one block of a page
// homed on node 0 held ReadOnly by node 1 (directory Shared, node 1
// listed), and returns what a test needs to tamper with that state.
type settled struct {
	m      *machine.Machine
	st     *Protocol
	va     mem.VA
	dir    *blockDir
	homePA mem.PA // the block at its home, node 0
	copyPA mem.PA // node 1's stache copy
}

func settle(t *testing.T) settled {
	t.Helper()
	m, st := newM(t, 2)
	seg := m.AllocShared("x", 2*mem.PageSize, vm.OnNode{Node: 0}, 0)
	run(t, m, st, func(p *machine.Proc) {
		if p.ID() == 0 {
			p.WriteU64(seg.At(0), 7)
		}
		p.Barrier()
		p.ReadU64(seg.At(0))
	})
	s := settled{m: m, st: st, va: seg.At(0)}
	s.homePA, _, _ = m.VM.Translate(0, s.va)
	s.copyPA, _, _ = m.VM.Translate(1, s.va)
	s.dir = &m.Mems[0].Frame(s.homePA).User.(*homeDir).blocks[0]
	if s.dir.state != dirShared || !s.dir.sharers.has(1) || m.Mems[1].Tag(s.copyPA) != mem.TagReadOnly {
		t.Fatalf("not the settled state the test tampers with: directory %v, node 1 tag %v", s.dir.state, m.Mems[1].Tag(s.copyPA))
	}
	return s
}

// TestCheckInvariantsMessages pins the text of every violation the audit
// can report: each case damages a settled machine in one way and expects
// the message that names it.
func TestCheckInvariantsMessages(t *testing.T) {
	const where = `segment "x" block 0x400000000000: `
	for _, tc := range []struct {
		name   string
		tamper func(s settled)
		want   string
	}{
		{"unmapped home", func(s settled) { s.m.VM.Table(0).Unmap(s.va.VPN()) },
			"home node 0 has no mapping"},
		{"no directory", func(s settled) { s.m.Mems[0].Frame(s.homePA).User = "not a directory" },
			"home frame has no directory (user word string)"},
		{"busy directory", func(s settled) { s.dir.state, s.dir.pend = dirBusy, pendRemoteRead },
			"directory still Busy (pend=1) at quiescence"},
		{"unknown writer", func(s settled) { s.m.Mems[1].SetTag(s.copyPA, mem.TagReadWrite) },
			"node 1 holds ReadWrite copy but directory is Shared (owner 0)"},
		{"home readable beside an owner", func(s settled) {
			s.m.Mems[1].SetTag(s.copyPA, mem.TagReadWrite)
			s.dir.state, s.dir.owner = dirExclusive, 1
		}, "remote owner 1 exists but home tag is ReadOnly"},
		{"unlisted reader", func(s settled) { s.dir.sharers.remove(1) },
			"node 1 holds ReadOnly copy but directory is Shared / not listed"},
		{"stale copy", func(s settled) { s.m.Mems[0].WriteU64(s.homePA, 8) },
			"node 1 ReadOnly copy differs from home data"},
		{"busy block", func(s settled) { s.m.Mems[1].SetTag(s.copyPA, mem.TagBusy) },
			"node 1 block still Busy at quiescence"},
		{"home writable beside readers", func(s settled) { s.m.Mems[0].SetTag(s.homePA, mem.TagReadWrite) },
			"directory Shared but home tag ReadWrite"},
	} {
		s := settle(t)
		tc.tamper(s)
		if err := s.st.CheckInvariants(); err == nil || err.Error() != where+tc.want {
			t.Errorf("%s: CheckInvariants() = %v, want %q", tc.name, err, where+tc.want)
		}
	}
}

// TestCheckInvariantsAllocatesPerAudit: the audit runs after every point
// over every block of every segment; its two block buffers are per
// audit, not per block.
func TestCheckInvariantsAllocatesPerAudit(t *testing.T) {
	s := settle(t) // 256 blocks, one of them with a read-only copy to compare
	if n := testing.AllocsPerRun(10, func() {
		if err := s.st.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("CheckInvariants allocates %v times for 256 blocks, want 2", n)
	}
}

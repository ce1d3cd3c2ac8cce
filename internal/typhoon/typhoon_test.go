package typhoon

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"github.com/tempest-sim/tempest/internal/machine"
	"github.com/tempest-sim/tempest/internal/mem"
	"github.com/tempest-sim/tempest/internal/network"
	"github.com/tempest-sim/tempest/internal/sim"
	"github.com/tempest-sim/tempest/internal/vm"
)

// nullProto is a minimal protocol: every shared page is premapped on its
// home with ReadWrite tags and other nodes never map it; it exists to
// exercise the Typhoon mechanisms directly.
type nullProto struct {
	sys *System
}

func (n *nullProto) Name() string { return "null" }
func (n *nullProto) Attach(sys *System) {
	n.sys = sys
	sys.RegisterPageMode(vm.ModeUser, PageModeOps{
		PageFault: func(_ *System, p *machine.Proc, va mem.VA, write bool) {
			panic("nullProto: page fault")
		},
		BlockFault: func(np *NP, f Fault) {
			// Grant whatever was asked.
			np.SetTag(f.VA, mem.TagReadWrite)
			np.Resume(f.Proc)
		},
	})
}
func (n *nullProto) SetupSegment(seg *vm.Segment) {
	m := n.sys.M
	for i := 0; i < seg.Pages(); i++ {
		va := seg.Base + mem.VA(i*mem.PageSize)
		home := m.VM.Home(va)
		pa := m.Mems[home].AllocFrame(mem.TagReadWrite)
		m.Mems[home].Frame(pa).Home = home
		for node := 0; node < m.Cfg.Nodes; node++ {
			if node == home {
				m.VM.Table(node).Map(va.VPN(), vm.PTE{PA: pa, Writable: true, Mode: vm.ModeUser})
			}
		}
	}
}

func newNull(t *testing.T, nodes int) (*machine.Machine, *System) {
	t.Helper()
	m := machine.New(machine.Config{Nodes: nodes, CacheSize: 4096, Seed: 1})
	np := &nullProto{}
	sys := New(m, np)
	return m, sys
}

func TestLocalMissGrantsExclusiveOnRWTag(t *testing.T) {
	m, _ := newNull(t, 1)
	seg := m.AllocShared("x", mem.PageSize, vm.OnNode{Node: 0}, vm.ModeUser)
	if _, err := m.Run(func(p *machine.Proc) {
		p.ReadU64(seg.At(0))
		t0 := p.Ctx.Time()
		p.WriteU64(seg.At(0), 5) // E-state write: silent
		if d := p.Ctx.Time() - t0; d != 1 {
			t.Errorf("write after RW-tag read cost %d, want 1", d)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestReadOnlyTagFillsShared(t *testing.T) {
	m, _ := newNull(t, 1)
	seg := m.AllocShared("x", mem.PageSize, vm.OnNode{Node: 0}, vm.ModeUser)
	m.Mems[0].SetTag(mem.MakePA(0, 0), mem.TagReadOnly) // first frame, first block
	if _, err := m.Run(func(p *machine.Proc) {
		p.ReadU64(seg.At(0))
		t0 := p.Ctx.Time()
		p.WriteU64(seg.At(0), 1) // upgrade -> BAF -> handler grants RW
		if d := p.Ctx.Time() - t0; d < 10 {
			t.Errorf("write to RO block cost only %d cycles; expected a fault round trip", d)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockFaultSuspendsAndResumes(t *testing.T) {
	m, _ := newNull(t, 1)
	seg := m.AllocShared("x", mem.PageSize, vm.OnNode{Node: 0}, vm.ModeUser)
	m.Mems[0].SetPageTags(mem.MakePA(0, 0), mem.TagInvalid)
	res, err := m.Run(func(p *machine.Proc) {
		if got := p.ReadU64(seg.At(0)); got != 0 {
			t.Errorf("read %d", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Get("np.block_access_faults") != 1 {
		t.Errorf("BAFs = %d, want 1", res.Counters.Get("np.block_access_faults"))
	}
	if res.Counters.Get("np.fault_handlers") != 1 {
		t.Errorf("fault handlers = %d, want 1", res.Counters.Get("np.fault_handlers"))
	}
}

func TestUserMessagingRoundTrip(t *testing.T) {
	m := machine.New(machine.Config{Nodes: 2, CacheSize: 4096, Seed: 1})
	np := &nullProto{}
	sys := New(m, np)
	const hPing = HandlerUserBase + 7
	const hPong = HandlerUserBase + 8
	var got []uint64
	sys.RegisterHandler(hPing, func(np *NP, pkt *network.Packet) {
		np.Charge(3)
		np.SendReply(pkt.Src, hPong, []uint64{pkt.Args[0] * 2}, nil)
	})
	done := false
	sys.RegisterHandler(hPong, func(np *NP, pkt *network.Packet) {
		got = append(got, pkt.Args[0])
		done = true
		_ = done
	})
	if _, err := m.Run(func(p *machine.Proc) {
		if p.ID() == 0 {
			sys.Send(p, network.VNetRequest, 1, hPing, []uint64{21}, nil)
			p.Ctx.Sleep(200)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 42 {
		t.Fatalf("pong = %v, want [42]", got)
	}
}

func TestBulkTransferMovesData(t *testing.T) {
	m := machine.New(machine.Config{Nodes: 2, CacheSize: 4096, Seed: 1})
	sys := New(m, &nullProto{})
	const n = 1024
	var srcVA, dstVA mem.VA
	srcVA = m.AllocPrivate(0, n)
	dstVA = m.AllocPrivate(1, n)
	// Fill source directly.
	for i := 0; i < n; i += 8 {
		pa, _, _ := m.VM.Translate(0, srcVA+mem.VA(i))
		m.Mems[0].WriteU64(pa, uint64(i)*3+1)
	}
	if _, err := m.Run(func(p *machine.Proc) {
		if p.ID() != 0 {
			return
		}
		b := sys.BulkTransfer(p, 1, srcVA, dstVA, n)
		b.Wait(p)
		if !b.Done() {
			t.Error("transfer not done after Wait")
		}
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 8 {
		pa, _, _ := m.VM.Translate(1, dstVA+mem.VA(i))
		if got := m.Mems[1].ReadU64(pa); got != uint64(i)*3+1 {
			t.Fatalf("dst[%d] = %d, want %d", i, got, uint64(i)*3+1)
		}
	}
}

func TestBulkTransferOverlapsComputation(t *testing.T) {
	m := machine.New(machine.Config{Nodes: 2, CacheSize: 4096, Seed: 1})
	sys := New(m, &nullProto{})
	srcVA := m.AllocPrivate(0, 4096)
	dstVA := m.AllocPrivate(1, 4096)
	if _, err := m.Run(func(p *machine.Proc) {
		if p.ID() != 0 {
			return
		}
		b := sys.BulkTransfer(p, 1, srcVA, dstVA, 4096)
		t0 := p.Ctx.Time()
		p.Compute(5000) // overlap: the NP streams chunks meanwhile
		b.Wait(p)
		total := p.Ctx.Time() - t0
		// 64 chunks at ~20 cycles each would be ~1300 serial cycles; with
		// overlap the total should be dominated by the 5000-cycle compute.
		if total > 6000 {
			t.Errorf("transfer did not overlap: %d cycles for 5000 compute", total)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestFragmentedMessageReassembly(t *testing.T) {
	m := machine.New(machine.Config{Nodes: 2, CacheSize: 4096, Seed: 1})
	sys := New(m, &nullProto{})
	const hBig = HandlerUserBase + 9
	payload := make([]byte, 300)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var got []byte
	var gotArgs []uint64
	sys.RegisterHandler(hBig, func(np *NP, pkt *network.Packet) {
		got = append([]byte(nil), pkt.Data...)
		gotArgs = append([]uint64(nil), pkt.Args...)
	})
	if _, err := m.Run(func(p *machine.Proc) {
		if p.ID() == 0 {
			sys.Send(p, network.VNetRequest, 1, hBig, []uint64{11, 22}, payload)
			p.Ctx.Sleep(500)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("reassembled %d bytes, mismatch", len(got))
	}
	if len(gotArgs) != 2 || gotArgs[0] != 11 || gotArgs[1] != 22 {
		t.Fatalf("args = %v", gotArgs)
	}
}

func TestInterleavedFragmentStreams(t *testing.T) {
	m := machine.New(machine.Config{Nodes: 3, CacheSize: 4096, Seed: 1})
	sys := New(m, &nullProto{})
	const hBig = HandlerUserBase + 9
	recv := map[byte]int{}
	sys.RegisterHandler(hBig, func(np *NP, pkt *network.Packet) {
		for _, b := range pkt.Data {
			if b != pkt.Data[0] {
				t.Errorf("stream corruption: %d in stream of %d", b, pkt.Data[0])
			}
		}
		recv[pkt.Data[0]] = len(pkt.Data)
	})
	if _, err := m.Run(func(p *machine.Proc) {
		if p.ID() == 2 {
			return // receiver
		}
		payload := make([]byte, 200)
		for i := range payload {
			payload[i] = byte(p.ID() + 1)
		}
		sys.Send(p, network.VNetRequest, 2, hBig, nil, payload)
		p.Ctx.Sleep(500)
	}); err != nil {
		t.Fatal(err)
	}
	if recv[1] != 200 || recv[2] != 200 {
		t.Fatalf("received = %v", recv)
	}
}

func TestDuplicateHandlerRegistrationPanics(t *testing.T) {
	m := machine.New(machine.Config{Nodes: 1, CacheSize: 4096, Seed: 1})
	sys := New(m, &nullProto{})
	sys.RegisterHandler(HandlerUserBase+30, func(np *NP, pkt *network.Packet) {})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	sys.RegisterHandler(HandlerUserBase+30, func(np *NP, pkt *network.Packet) {})
}

func TestReservedHandlerIDPanics(t *testing.T) {
	m := machine.New(machine.Config{Nodes: 1, CacheSize: 4096, Seed: 1})
	sys := New(m, &nullProto{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	sys.RegisterHandler(2, func(np *NP, pkt *network.Packet) {})
}

func TestTagOpsThroughNP(t *testing.T) {
	m, sys := newNull(t, 1)
	seg := m.AllocShared("x", mem.PageSize, vm.OnNode{Node: 0}, vm.ModeUser)
	if _, err := m.Run(func(p *machine.Proc) {
		p.ReadU64(seg.At(0)) // warm cache with the block
		np := sys.NP(0)
		// Drive tag ops from an injected "handler": use the NP context
		// via a message to self.
		const h = HandlerUserBase + 40
		_ = h
		_ = np
	}); err != nil {
		t.Fatal(err)
	}
	// The real tag-op coverage runs inside stache's tests; here we only
	// check the memory-visible effect of Invalidate via the map.
}

func TestRemoteMappedFramePanics(t *testing.T) {
	// A Typhoon page table must never point at a remote frame.
	m := machine.New(machine.Config{Nodes: 2, CacheSize: 4096, Seed: 1})
	New(m, &nullProto{})
	seg := m.AllocShared("x", mem.PageSize, vm.OnNode{Node: 0}, vm.ModeUser)
	// Sabotage: map node 1 to node 0's frame.
	pa, _, _ := m.VM.Translate(0, seg.At(0))
	m.VM.Table(1).Map(seg.At(0).VPN(), vm.PTE{PA: pa, Writable: true, Mode: vm.ModeUser})
	_, err := m.Run(func(p *machine.Proc) {
		if p.ID() == 1 {
			p.ReadU64(seg.At(0))
		}
	})
	if err == nil {
		t.Fatal("expected error for remote-mapped frame")
	}
}

func TestHandlerBudgetSanity(t *testing.T) {
	// The documented cost model must stay self-consistent.
	if DispatchCycles <= 0 || SendSetupCycles <= 0 || BlockXferCycles <= 0 {
		t.Fatal("cost constants must be positive")
	}
	if fmt.Sprintf("%d", TagOpCycles) != "2" {
		t.Fatalf("TagOpCycles changed: %d (stache budgets depend on it)", TagOpCycles)
	}
}

func TestTagOpsFromHandler(t *testing.T) {
	m, sys := newNull(t, 1)
	seg := m.AllocShared("x", mem.PageSize, vm.OnNode{Node: 0}, vm.ModeUser)
	const hPoke = HandlerUserBase + 50
	var observed []mem.Tag
	sys.RegisterHandler(hPoke, func(np *NP, pkt *network.Packet) {
		va := mem.VA(pkt.Args[0])
		observed = append(observed, np.ReadTag(va))
		np.SetTag(va, mem.TagReadOnly)
		observed = append(observed, np.ReadTag(va))
		np.DowngradeCPU(va)
		np.ForceWriteU64(va, 777)
		if got := np.ForceReadU64(va); got != 777 {
			t.Errorf("force round trip = %d", got)
		}
		blk := np.ForceReadBlock(va)
		np.ForceWriteBlock(va, blk)
		np.Invalidate(va)
		observed = append(observed, np.ReadTag(va))
		np.SetPageTags(va, mem.TagReadWrite)
		observed = append(observed, np.ReadTag(va))
	})
	if _, err := m.Run(func(p *machine.Proc) {
		p.ReadU64(seg.At(0)) // cache the block so Invalidate purges it
		sys.Send(p, network.VNetRequest, 0, hPoke, []uint64{uint64(seg.At(0))}, nil)
		p.Ctx.Sleep(300)
		// The handler's Invalidate must have purged the CPU cache line:
		// this access misses (tag is now RW again -> local miss).
		t0 := p.Ctx.Time()
		p.ReadU64(seg.At(0))
		if d := p.Ctx.Time() - t0; d < 29 {
			t.Errorf("read after handler Invalidate cost %d; cache line not purged", d)
		}
	}); err != nil {
		t.Fatal(err)
	}
	want := []mem.Tag{mem.TagReadWrite, mem.TagReadOnly, mem.TagInvalid, mem.TagReadWrite}
	if len(observed) != len(want) {
		t.Fatalf("observed = %v", observed)
	}
	for i := range want {
		if observed[i] != want[i] {
			t.Fatalf("observed[%d] = %v, want %v", i, observed[i], want[i])
		}
	}
}

func TestDuplicatePageModePanics(t *testing.T) {
	m := machine.New(machine.Config{Nodes: 1, CacheSize: 4096, Seed: 1})
	sys := New(m, &nullProto{}) // nullProto registers vm.ModeUser
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	sys.RegisterPageMode(vm.ModeUser, PageModeOps{})
}

func TestPageFaultOutsideSharedPanics(t *testing.T) {
	m := machine.New(machine.Config{Nodes: 1, CacheSize: 4096, Seed: 1})
	New(m, &nullProto{})
	_, err := m.Run(func(p *machine.Proc) {
		p.ReadU64(mem.VA(0x5000)) // private range, never mapped
	})
	if err == nil {
		t.Fatal("expected error for unmapped private access")
	}
}

func TestNPMemRefCacheBehaviour(t *testing.T) {
	m, sys := newNull(t, 1)
	const hRef = HandlerUserBase + 51
	var costs []sim.Time
	sys.RegisterHandler(hRef, func(np *NP, pkt *network.Packet) {
		addr := mem.MakePA(0, uint64(1)<<38)
		t0 := np.Time()
		np.MemRef(addr, false) // cold: local miss
		costs = append(costs, np.Time()-t0)
		t0 = np.Time()
		np.MemRef(addr, false) // warm read hit
		costs = append(costs, np.Time()-t0)
		t0 = np.Time()
		np.MemRef(addr, true) // write hit (exclusive fill)
		costs = append(costs, np.Time()-t0)
	})
	if _, err := m.Run(func(p *machine.Proc) {
		sys.Send(p, network.VNetRequest, 0, hRef, nil, nil)
		p.Ctx.Sleep(200)
	}); err != nil {
		t.Fatal(err)
	}
	if len(costs) != 3 || costs[0] != 29 || costs[1] != 1 || costs[2] != 1 {
		t.Fatalf("MemRef costs = %v, want [29 1 1]", costs)
	}
}

func TestBulkTransferAlignmentPanics(t *testing.T) {
	m := machine.New(machine.Config{Nodes: 2, CacheSize: 4096, Seed: 1})
	sys := New(m, &nullProto{})
	src := m.AllocPrivate(0, 64)
	dst := m.AllocPrivate(1, 64)
	_, err := m.Run(func(p *machine.Proc) {
		if p.ID() != 0 {
			return
		}
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
			panic("rethrow")
		}()
		sys.BulkTransfer(p, 1, src+4, dst, 8)
	})
	if err == nil {
		t.Fatal("expected run error")
	}
}

// TestSecondPendingFaultPanics: the NP holds one pending block fault,
// because a compute processor parks right after posting one. A second
// post before the NP takes the first is a bug in the caller, and the
// panic names the node and both addresses.
func TestSecondPendingFaultPanics(t *testing.T) {
	m := machine.New(machine.Config{Nodes: 1, CacheSize: 4096, Seed: 1})
	np := New(m, &nullProto{}).NP(0)
	// The machine never runs: the faulting processor needs only a clock.
	p := &machine.Proc{Ctx: m.Eng.Spawn("cpu", func(*sim.Context) {})}
	np.postFault(Fault{Proc: p, VA: 0x1000})
	defer func() {
		r := recover()
		msg, _ := r.(string)
		for _, want := range []string{"np0", "0x2040", "0x1000"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("second postFault: recovered %v, want a panic naming %s", r, want)
			}
		}
	}()
	np.postFault(Fault{Proc: p, VA: 0x2040})
}

// TestDispatchTableBounds: the handler and page-mode tables are slices
// indexed by ID, so registration bounds the ID; every refusal panics
// with a message naming the ID, and an ID past the table reads as
// unregistered.
func TestDispatchTableBounds(t *testing.T) {
	nop := func(np *NP, pkt *network.Packet) {}
	for _, tc := range []struct {
		name string
		do   func(sys *System)
		want string
	}{
		{"reserved", func(sys *System) { sys.RegisterHandler(2, nop) }, "typhoon: handler id 2 is reserved"},
		{"duplicate", func(sys *System) { sys.RegisterHandler(20, nop); sys.RegisterHandler(20, nop) },
			"typhoon: handler id 20 registered twice"},
		{"past the bound", func(sys *System) { sys.RegisterHandler(maxHandlerID+1, nop) },
			"typhoon: handler id 256 exceeds 255"},
		{"wrap unregistered", func(sys *System) { sys.WrapHandler(20, func(h Handler) Handler { return h }) },
			"typhoon: WrapHandler on unregistered handler id 20"},
		{"wrap past the table", func(sys *System) { sys.WrapHandler(1000, func(h Handler) Handler { return h }) },
			"typhoon: WrapHandler on unregistered handler id 1000"},
		{"private mode", func(sys *System) { sys.RegisterPageMode(vm.ModePrivate, PageModeOps{}) },
			"typhoon: cannot override the private page mode"},
		{"duplicate mode", func(sys *System) { sys.RegisterPageMode(vm.ModeUser, PageModeOps{}) },
			"typhoon: page mode 1 registered twice"},
		{"mode past the bound", func(sys *System) { sys.RegisterPageMode(maxPageMode+1, PageModeOps{}) },
			"typhoon: page mode 256 outside [0, 255]"},
		{"negative mode", func(sys *System) { sys.RegisterPageMode(-1, PageModeOps{}) },
			"typhoon: page mode -1 outside [0, 255]"},
	} {
		m := machine.New(machine.Config{Nodes: 1, CacheSize: 4096, Seed: 1})
		sys := New(m, &nullProto{})
		func() {
			defer func() {
				if got := recover(); got != tc.want {
					t.Errorf("%s: panic %v, want %q", tc.name, got, tc.want)
				}
			}()
			tc.do(sys)
		}()
	}

	m, sys := newNull(t, 2)
	sys.RegisterHandler(maxHandlerID, func(np *NP, pkt *network.Packet) {})
	if !sys.HasHandler(maxHandlerID) || sys.HasHandler(maxHandlerID-1) || sys.HasHandler(1<<20) {
		t.Error("HasHandler does not read the table")
	}
	_, err := m.Run(func(p *machine.Proc) {
		if p.ID() == 0 {
			sys.Send(p, network.VNetRequest, 1, 1<<20, nil, nil)
		}
	})
	if want := "typhoon: np1 received message for unregistered handler 1048576"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Run = %v, want an error containing %q", err, want)
	}
}

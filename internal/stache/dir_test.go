package stache

import (
	"bytes"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"github.com/tempest-sim/tempest/internal/machine"
	"github.com/tempest-sim/tempest/internal/mem"
	"github.com/tempest-sim/tempest/internal/network"
	"github.com/tempest-sim/tempest/internal/typhoon"
	"github.com/tempest-sim/tempest/internal/vm"
)

// TestHomeDirIsOneSizeClass: a home page's directory at 32-byte blocks
// is 128 entries of 32 bytes, which the allocator serves from its 4 KiB
// size class, beside the 24-byte header; 129 bytes more per page would
// cost a whole 8 KiB object. The fewest bytes over a few tries is taken,
// so a stray allocation elsewhere in the process cannot fail the test.
func TestHomeDirIsOneSizeClass(t *testing.T) {
	const blocks = mem.PageSize / mem.DefaultBlockSize
	want := uint64(mem.PageSize + unsafe.Sizeof(homeDir{}))
	got := ^uint64(0)
	var keep *homeDir
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		keep = newHomeDir(blocks)
		runtime.ReadMemStats(&after)
		got = min(got, after.TotalAlloc-before.TotalAlloc)
	}
	runtime.KeepAlive(keep)
	if got != want {
		t.Errorf("newHomeDir(%d) allocates %d B, want %d: a 4 KiB entry array and its header", blocks, got, want)
	}
}

// TestNodeMaskMatchesSharerSet drives a Busy entry's node mask and the
// sharer set it replaced through the same random add/remove/clear
// sequences, across the set's overflow to a bit vector and back, and
// requires them to agree on every membership test, count and member
// list.
func TestNodeMaskMatchesSharerSet(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for seq := range 200 {
		var m nodeMask
		var s sharerSet
		span := 1 + rng.IntN(machine.MaxNodes) // small spans revisit nodes
		for step := range 400 {
			node := rng.IntN(span)
			switch op := rng.IntN(10); {
			case op < 5:
				m.add(node)
				s.add(node)
			case op < 9:
				m.remove(node)
				s.remove(node)
			default:
				m.clear()
				s.clear()
			}
			if m.count() != s.count() {
				t.Fatalf("sequence %d step %d: mask count %d, set count %d", seq, step, m.count(), s.count())
			}
			for n := range machine.MaxNodes {
				if m.has(n) != s.has(n) {
					t.Fatalf("sequence %d step %d: node %d in mask %v, in set %v", seq, step, n, m.has(n), s.has(n))
				}
			}
			var inMask, inSet []int
			m.each(func(n int) { inMask = append(inMask, n) })
			s.each(func(n int) { inSet = append(inSet, n) })
			slices.Sort(inSet)
			if !slices.Equal(inMask, inSet) {
				t.Fatalf("sequence %d step %d: mask walks %v, set holds %v", seq, step, inMask, inSet)
			}
		}
	}
}

// TestFlagsAreIndependent: setting or clearing one of a directory
// entry's packed flags leaves the other two as they were.
func TestFlagsAreIndependent(t *testing.T) {
	all := []dirFlags{flagMigratory, flagPendDirty, flagPendUpgrade}
	for start := range dirFlags(1 << len(all)) {
		for _, f := range all {
			for _, on := range []bool{false, true} {
				d := blockDir{flags: start}
				d.set(f, on)
				if d.has(f) != on {
					t.Errorf("flags %03b: set(%03b, %v) left it %v", start, f, on, d.has(f))
				}
				for _, g := range all {
					if g != f && d.has(g) != (start&g != 0) {
						t.Errorf("flags %03b: set(%03b, %v) changed %03b", start, f, on, g)
					}
				}
			}
		}
	}
}

// TestAckFromUnawaitedNodeIsIgnored: a Busy entry takes an invalidation
// acknowledgement only from a node it awaits. The home writes a block
// two nodes share; before the first real acknowledgement reaches it, a
// forged one from node 3, which never held the block, arrives carrying
// a block of 0xff bytes. Taken, it would overwrite the home's copy of
// the block's other words.
func TestAckFromUnawaitedNodeIsIgnored(t *testing.T) {
	m := machine.New(machine.Config{Nodes: 4, CacheSize: 4096, Seed: 1})
	st := New()
	sys := typhoon.New(m, st)
	seg := m.AllocShared("x", mem.PageSize, vm.OnNode{Node: 0}, 0)
	forged := false
	sys.WrapHandler(HInvalAck, func(h typhoon.Handler) typhoon.Handler {
		return func(np *typhoon.NP, pkt *network.Packet) {
			if !forged {
				forged = true
				h(np, &network.Packet{Src: 3, Dst: np.Node(), VNet: pkt.VNet, Handler: pkt.Handler,
					Args: []uint64{pkt.Args[0], 1}, Data: bytes.Repeat([]byte{0xff}, mem.DefaultBlockSize)})
			}
			h(np, pkt)
		}
	})
	var got [4]uint64
	run(t, m, st, func(p *machine.Proc) {
		if p.ID() == 0 {
			p.WriteU64(seg.At(8), 42)
		}
		p.Barrier()
		if p.ID() == 1 || p.ID() == 2 {
			p.ReadU64(seg.At(0))
		}
		p.Barrier()
		if p.ID() == 0 {
			p.WriteU64(seg.At(0), 7) // invalidates nodes 1 and 2
		}
		p.Barrier()
		got[p.ID()] = p.ReadU64(seg.At(8))
	})
	if !forged {
		t.Fatal("no acknowledgement reached the home")
	}
	for node, v := range got {
		if v != 42 {
			t.Errorf("node %d reads %#x beside the written word, want 42", node, v)
		}
	}
}

package machine

import (
	"fmt"
	"math"

	"github.com/tempest-sim/tempest/internal/cache"
	"github.com/tempest-sim/tempest/internal/mem"
	"github.com/tempest-sim/tempest/internal/sim"
	"github.com/tempest-sim/tempest/internal/stats"
	"github.com/tempest-sim/tempest/internal/vm"
)

// maxRetries bounds how many times one reference may be retried after
// fault service before the run aborts; it exists to turn protocol
// livelock bugs into diagnostics instead of hangs.
const maxRetries = 10000

// ProcStats are the hot-path per-processor event counts, kept as plain
// fields so the reference path stays allocation- and hash-free.
type ProcStats struct {
	Loads       uint64
	Stores      uint64
	TLBMisses   uint64
	CacheMisses uint64
	Upgrades    uint64
	Evictions   uint64 // valid lines displaced by cache fills
	PageFaults  uint64
	BlockFaults uint64 // retries signalled by the memory system
	Computes    uint64 // cycles charged via Compute
	Barriers    uint64
}

// Proc is one simulated processor: the handle SPMD application code
// programs against. All of its operations charge simulated time.
type Proc struct {
	m    *Machine
	node int

	// Ctx is the processor's compute thread. Protocol code uses it to
	// suspend and resume the processor (Tempest's read/write fault and
	// resume semantics).
	Ctx *sim.Context

	// Flattened fast path: the node's TLB, cache, and page table, cached
	// at construction so a hit-path reference chases no Machine slices.
	tlb *cache.TLB
	cc  *cache.Cache
	pt  *vm.PageTable

	// roiStart/roiEnd are this processor's ROI marks; Run folds the
	// per-processor maxima, so the result matches the old machine-global
	// max while each mark is written only by its own context.
	roiStart, roiEnd sim.Time

	// obs, when non-nil, accumulates the processor's application-visible
	// memory history (see Observation). Nil unless
	// Machine.EnableObservation ran; the data ops pay one nil check.
	obs *Observation

	Stats ProcStats
}

// Machine returns the owning machine.
func (p *Proc) Machine() *Machine { return p.m }

// ID returns the processor's node number.
func (p *Proc) ID() int { return p.node }

// N returns the number of processors.
func (p *Proc) N() int { return p.m.Cfg.Nodes }

// Compute charges n cycles of non-memory instructions (the 1
// cycle/instruction model of paper §6).
func (p *Proc) Compute(n int) {
	p.Stats.Computes += uint64(n)
	p.Ctx.Advance(sim.Time(n))
}

// Barrier joins the machine-wide hardware barrier. Like memory
// references, it first absorbs any protocol-handler cycles stolen from
// this processor (software Tempest), so compute-only phases cannot end a
// run without paying for the handlers they hosted.
func (p *Proc) Barrier() {
	p.Stats.Barriers++
	// A yielding charge: handlers that run in the window it opens may
	// steal cycles from this processor (StealCycles), and those must be
	// absorbed below, before Arrive, not after the barrier.
	p.Ctx.Advance(1)
	if st := p.m.stalls[p.node]; st > 0 {
		p.m.stalls[p.node] = 0
		p.Ctx.Advance(st)
	}
	p.m.Bar.Arrive(p.Ctx)
}

// ROIStart marks the beginning of the measured region. Call it on every
// processor immediately after a barrier; the latest caller defines the
// region start.
func (p *Proc) ROIStart() {
	if p.Ctx.Time() > p.roiStart {
		p.roiStart = p.Ctx.Time()
	}
}

// ROIEnd marks the end of the measured region; the latest caller defines
// the region end.
func (p *Proc) ROIEnd() {
	if p.Ctx.Time() > p.roiEnd {
		p.roiEnd = p.Ctx.Time()
	}
}

// access performs one tag-checked 8-byte reference, a load (write
// false; v is ignored and the value read is returned) or a store of v.
// It is the one out-of-line call of a cache hit: the hit check is
// inlined here and resolve handles everything else. A reference hits
// when its page record's CPU-TLB hint names a resident entry, the page
// permits the access, the cache holds the line in a state that permits
// it, no stolen cycles or per-reference overhead are due, and TryTick
// charges the instruction cycle without a scheduling point. The tests
// before TryTick read state and change none, and TryTick charges only
// when it succeeds, so a failed check leaves the reference untouched
// for resolve to run from the start: it charges the cycle itself,
// exactly once.
func (p *Proc) access(va mem.VA, write bool, v uint64) uint64 {
	vpn := va.VPN()
	rec := p.pt.Record(vpn)
	pa := rec.PA().FrameBase() + mem.PA(va.PageOffset())
	f := rec.Frame()
	if p.tlb.Has(vpn, rec.CPUHint) && rec.Mapped() && (!write || rec.Writable()) && p.cc.Hit(pa, write) &&
		p.m.PerRefOverhead == 0 && p.m.stalls[p.node] == 0 && p.Ctx.TryTick() {
		if write {
			p.Stats.Stores++
		} else {
			p.Stats.Loads++
		}
	} else {
		pa, f = p.resolve(va, write)
	}
	kind := obsRead
	if write {
		f.WriteU64(pa, v)
		kind = obsWrite
	} else {
		v = f.ReadU64(pa)
	}
	if p.obs != nil {
		p.obs.note(kind, va, v)
	}
	return v
}

// resolve runs one tag-checked reference through the node: one
// instruction cycle, TLB, translation (with page-fault service), cache
// probe, and — on a miss or upgrade — the pluggable memory system. It
// returns the physical address the reference resolved to and the frame
// holding it. access calls it for every reference its hit check does
// not complete.
func (p *Proc) resolve(va mem.VA, write bool) (mem.PA, *mem.Frame) {
	p.Ctx.Advance(1)
	if st := p.m.stalls[p.node]; st > 0 {
		// Absorb protocol-handler cycles stolen from this processor
		// (software Tempest implementations only).
		p.m.stalls[p.node] = 0
		p.Ctx.Advance(st)
	}
	if p.m.PerRefOverhead > 0 && vm.IsShared(va) {
		// Inline software access check (software Tempest).
		p.Ctx.AdvanceAtomic(p.m.PerRefOverhead)
	}
	if write {
		p.Stats.Stores++
	} else {
		p.Stats.Loads++
	}
	vpn := va.VPN()
	for attempt := 0; ; attempt++ {
		if attempt == maxRetries {
			panic(fmt.Sprintf("machine: cpu%d reference %#x (write=%v) retried %d times; protocol livelock?",
				p.node, va, write, maxRetries))
		}
		rec := p.pt.Record(vpn)
		if !p.tlb.Lookup(vpn, &rec.CPUHint) {
			p.Stats.TLBMisses++
			p.Ctx.Advance(TLBMissCycles)
			rec = p.pt.Record(vpn) // the refill may yield, and records move on reservation
		}
		if !rec.Mapped() || write && !rec.Writable() {
			p.Stats.PageFaults++
			p.m.Sys.PageFault(p, va, write)
			continue
		}
		pa := rec.PA().FrameBase() + mem.PA(va.PageOffset())
		hit, upgrade := p.cc.Probe(pa, write)
		if hit {
			return pa, rec.Frame()
		}
		if upgrade {
			p.Stats.Upgrades++
		} else {
			p.Stats.CacheMisses++
		}
		state := p.m.Sys.ServiceMiss(p, va, pa, rec.PTE(), write, upgrade)
		if state == cache.LineInvalid {
			p.Stats.BlockFaults++
			continue // fault serviced; re-run the reference
		}
		if upgrade {
			if p.cc.Lookup(pa) == cache.LineInvalid {
				// The Shared line was invalidated while the upgrade
				// was in flight (another writer won): retry as a full
				// miss, as the bus would.
				continue
			}
			p.cc.Upgrade(pa)
		} else {
			victim, vs := p.cc.Fill(pa, state)
			if vs != cache.LineInvalid {
				p.Stats.Evictions++
				p.m.Sys.Evicted(p, victim, vs)
			}
		}
		// The mapping may have changed while the miss blocked: find the
		// frame by address, as the bus does.
		return pa, p.m.Mems[pa.Node()].MustFrame(pa)
	}
}

// ReadU64 performs a tag-checked 8-byte load from the shared or private
// address va and returns the value.
func (p *Proc) ReadU64(va mem.VA) uint64 { return p.access(va, false, 0) }

// WriteU64 performs a tag-checked 8-byte store.
func (p *Proc) WriteU64(va mem.VA, v uint64) { p.access(va, true, v) }

// ReadF64 performs a tag-checked float64 load.
func (p *Proc) ReadF64(va mem.VA) float64 { return math.Float64frombits(p.access(va, false, 0)) }

// WriteF64 performs a tag-checked float64 store.
func (p *Proc) WriteF64(va mem.VA, v float64) { p.access(va, true, math.Float64bits(v)) }

func (p *Proc) foldCounters(c *stats.Counters) {
	c.Add("cpu.loads", p.Stats.Loads)
	c.Add("cpu.stores", p.Stats.Stores)
	c.Add("cpu.tlb_misses", p.Stats.TLBMisses)
	c.Add("cpu.cache_misses", p.Stats.CacheMisses)
	c.Add("cpu.upgrades", p.Stats.Upgrades)
	c.Add("cpu.evictions", p.Stats.Evictions)
	c.Add("cpu.page_faults", p.Stats.PageFaults)
	c.Add("cpu.block_fault_retries", p.Stats.BlockFaults)
	c.Add("cpu.compute_cycles", p.Stats.Computes)
	c.Add("cpu.barriers", p.Stats.Barriers)
}

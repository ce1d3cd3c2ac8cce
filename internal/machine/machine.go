// Package machine assembles the simulated parallel computer both target
// systems share: workstation-like nodes (CPU + cache + TLB + DRAM) on a
// point-to-point network with a hardware barrier (paper §5, Figure 1, and
// the "Common" rows of Table 2). The memory system behind a cache miss is
// pluggable: internal/typhoon provides the Tempest/Typhoon node and
// internal/dirnnb the all-hardware directory baseline.
package machine

import (
	"fmt"
	"math/bits"

	"github.com/tempest-sim/tempest/internal/cache"
	"github.com/tempest-sim/tempest/internal/mem"
	"github.com/tempest-sim/tempest/internal/network"
	"github.com/tempest-sim/tempest/internal/sim"
	"github.com/tempest-sim/tempest/internal/stats"
	"github.com/tempest-sim/tempest/internal/vm"
)

// Config carries the Table 2 simulation parameters common to both target
// systems, plus simulator housekeeping (quantum, seed).
type Config struct {
	// Nodes is the number of processing nodes (the paper simulates 32).
	Nodes int
	// CacheSize is the CPU cache capacity in bytes (Figure 3 sweeps 4 KB
	// to 256 KB).
	CacheSize int
	// CacheWays is the CPU cache associativity (Table 2: 4-way).
	CacheWays int
	// BlockSize is the coherence-block and cache-line size (Table 2: 32).
	BlockSize int
	// TLBEntries is the CPU (and NP) TLB capacity (Table 2: 64).
	TLBEntries int

	// LocalMissCycles is a cache miss satisfied from local DRAM (29).
	LocalMissCycles sim.Time
	// TLBMissCycles is the TLB refill penalty (25).
	TLBMissCycles sim.Time
	// NetLatency is the end-to-end network latency (11).
	NetLatency sim.Time
	// BarrierLatency is the hardware barrier latency (11).
	BarrierLatency sim.Time

	// LinkBytesPerCycle enables the network contention model: finite
	// per-port link bandwidth in bytes per cycle (packets serialise
	// through their injection and ejection ports for
	// ceil(payload/bandwidth) cycles, queueing FIFO behind each other).
	// Zero models infinite bandwidth — the paper's simplification and
	// the behaviour every pinned digest assumes.
	LinkBytesPerCycle int
	// OccupancyCycles enables the agent contention model: every protocol
	// agent (Typhoon NP, DirNNB directory controller) is busy for this
	// many cycles after dispatching a message, so back-to-back dispatches
	// serialise and hot-home queueing becomes visible (paper §6 names NP
	// occupancy, not latency, as the real bottleneck). Zero restores the
	// legacy unbounded-concurrency behaviour.
	OccupancyCycles sim.Time

	// Quantum is the scheduler run-ahead bound; zero means
	// sim.DefaultQuantum.
	Quantum sim.Time
	// Seed drives random cache replacement.
	Seed uint64
	// Inert: kept because benchmark/ names the field; the PR that retires the `sharded` workload deletes it.
	Shards int
}

// DefaultConfig returns the Table 2 parameters: 32 nodes, 256 KB 4-way
// CPU caches, 32-byte blocks, 64-entry TLBs, 29/25/11/11-cycle latencies.
func DefaultConfig() Config {
	return Config{
		Nodes:           32,
		CacheSize:       256 << 10,
		CacheWays:       4,
		BlockSize:       32,
		TLBEntries:      64,
		LocalMissCycles: 29,
		TLBMissCycles:   25,
		NetLatency:      11,
		BarrierLatency:  11,
		Seed:            1,
	}
}

func (c *Config) applyDefaults() {
	d := DefaultConfig()
	if c.Nodes == 0 {
		c.Nodes = d.Nodes
	}
	if c.CacheSize == 0 {
		c.CacheSize = d.CacheSize
	}
	if c.CacheWays == 0 {
		c.CacheWays = d.CacheWays
	}
	if c.BlockSize == 0 {
		c.BlockSize = d.BlockSize
	}
	if c.TLBEntries == 0 {
		c.TLBEntries = d.TLBEntries
	}
	if c.LocalMissCycles == 0 {
		c.LocalMissCycles = d.LocalMissCycles
	}
	if c.TLBMissCycles == 0 {
		c.TLBMissCycles = d.TLBMissCycles
	}
	if c.NetLatency == 0 {
		c.NetLatency = d.NetLatency
	}
	if c.BarrierLatency == 0 {
		c.BarrierLatency = d.BarrierLatency
	}
	if c.Quantum == 0 {
		c.Quantum = sim.DefaultQuantum // what sim.WithQuantum(0) runs at
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
}

// Normalized returns the configuration with defaults applied — the
// canonical form the result cache keys on, where an explicit
// Table 2 value and a zero that defaults to it digest identically.
func (c Config) Normalized() Config {
	c.applyDefaults()
	return c
}

// MaxCycles bounds every cycle-valued Config field. It sits far above
// any latency a sweep uses (88 cycles at most) and far below where
// simulated-time arithmetic wraps: a latency of 2^64−1 cycles is −1 on
// wrapped arithmetic, and a run on it still verifies.
const MaxCycles sim.Time = 1 << 32

// MaxNodes, MaxCacheBytes and MaxTLBEntries bound the geometry New
// allocates from: per node, one cache line word per block of
// CacheSize and a few words per TLB entry (three TLBs on a Typhoon
// node). Configurations arrive over the wire, and an allocation the
// host cannot satisfy is a kill no recover turns into an error reply.
// MaxNodes is twice the paper's 32 nodes and is also the width of one
// word: a DirNNB or Stache sharer set is a single uint64 bit vector. The
// other two are 16× and 64× what the paper and any committed sweep use
// (256 KB, 64 entries). A machine at all three bounds costs the host
// about 70 MB at the default block size, four times that at the
// smallest.
const (
	MaxNodes      = 64
	MaxCacheBytes = 4 << 20
	MaxTLBEntries = 1 << 12
)

// Validate reports why New would refuse the configuration (defaults
// applied first): the node count, the contention knobs, the upper
// bounds on cycle counts and on the geometry New allocates from, and the
// cache, block and TLB geometry the per-node components insist on.
// Configurations arrive over the wire (harness.Point), so callers ask
// here instead of finding out from a panic.
func (c Config) Validate() error {
	c.applyDefaults()
	for _, f := range [...]struct {
		name string
		v    sim.Time
	}{
		{"local miss", c.LocalMissCycles}, {"TLB miss", c.TLBMissCycles},
		{"network latency", c.NetLatency}, {"barrier latency", c.BarrierLatency},
		{"occupancy", c.OccupancyCycles}, {"quantum", c.Quantum},
	} {
		if f.v > MaxCycles {
			return fmt.Errorf("%s of %d cycles exceeds %d", f.name, f.v, MaxCycles)
		}
	}
	switch bs := c.BlockSize; {
	case c.Nodes < 1 || c.Nodes > MaxNodes:
		return fmt.Errorf("%d nodes outside [1, %d]", c.Nodes, MaxNodes)
	case c.LinkBytesPerCycle < 0:
		return fmt.Errorf("negative link bandwidth %d", c.LinkBytesPerCycle)
	case bs < 8 || bs > mem.PageSize || bs&(bs-1) != 0:
		return fmt.Errorf("block size %d is not a power of two in [8, %d]", bs, mem.PageSize)
	case c.CacheSize < 1 || c.CacheWays < 1 || c.CacheSize%bs != 0 || c.CacheSize/bs%c.CacheWays != 0:
		return fmt.Errorf("cache size %d not divisible into %d-way sets of %d-byte blocks", c.CacheSize, c.CacheWays, bs)
	case c.CacheSize > MaxCacheBytes:
		return fmt.Errorf("cache size %d exceeds %d bytes", c.CacheSize, MaxCacheBytes)
	case bits.OnesCount(uint(c.CacheSize/bs/c.CacheWays)) != 1:
		return fmt.Errorf("cache size %d in %d-way sets of %d-byte blocks makes %d sets, which is not a power of two",
			c.CacheSize, c.CacheWays, bs, c.CacheSize/bs/c.CacheWays)
	case c.TLBEntries < 1 || c.TLBEntries > MaxTLBEntries:
		return fmt.Errorf("%d TLB entries outside [1, %d]", c.TLBEntries, MaxTLBEntries)
	}
	return nil
}

// MemSystem is the pluggable memory system behind the CPU cache: the
// Typhoon node (tags + NP + user-level protocol) or the DirNNB hardware
// directory.
type MemSystem interface {
	// Name identifies the system in reports ("Typhoon/Stache", "DirNNB").
	Name() string

	// SetupSegment prepares a freshly allocated shared segment: DirNNB
	// eagerly places frames at each page's home; Typhoon protocols build
	// home pages and directories.
	SetupSegment(seg *vm.Segment)

	// PageFault services an access to a page unmapped on p's node. When
	// it returns, the reference is retried; the handler must have
	// installed a translation (or the retry bound aborts the run).
	PageFault(p *Proc, va mem.VA, write bool)

	// ServiceMiss services the bus transaction of a reference that
	// missed (or, with upgrade set, hit a Shared line it must own to
	// write). It blocks in simulated time until the access may proceed
	// and returns the cache state to install. Returning cache.LineInvalid
	// asks the machine to retry the whole reference, e.g. after a block
	// access fault handler remapped or re-tagged the page.
	ServiceMiss(p *Proc, va mem.VA, pa mem.PA, pte vm.PTE, write, upgrade bool) cache.LineState

	// Evicted tells the system a valid line left p's cache so it can
	// charge replacement costs and update hardware directory state.
	Evicted(p *Proc, victim mem.PA, state cache.LineState)

	// Counters returns the system's event totals in a fresh set; Run
	// calls it once, after the engine stops.
	Counters() *stats.Counters
}

// Machine is one simulated target system.
type Machine struct {
	Cfg Config
	Eng *sim.Engine
	Net *network.Network
	VM  *vm.System

	Mems   []*mem.Memory
	Caches []*cache.Cache
	TLBs   []*cache.TLB
	Bar    *sim.Barrier

	Sys   MemSystem
	Procs []*Proc

	// PerRefOverhead is charged on every shared-segment reference, even
	// cache hits — the inline software access-check cost of a software
	// Tempest implementation (zero on Typhoon, whose RTLB checks tags in
	// hardware off the critical path).
	PerRefOverhead sim.Time
	// stalls accumulates protocol-handler cycles stolen from each
	// node's compute processor (software Tempest runs handlers on the
	// main CPU); the processor absorbs them at its next reference.
	stalls []sim.Time

	ran bool
}

// New builds a machine from cfg. A MemSystem must be attached with
// SetMemSystem before allocating shared segments or running.
func New(cfg Config) *Machine {
	cfg.applyDefaults()
	if err := cfg.Validate(); err != nil {
		panic("machine: " + err.Error())
	}
	netCfg := network.Config{
		Nodes:             cfg.Nodes,
		Latency:           cfg.NetLatency,
		LinkBytesPerCycle: cfg.LinkBytesPerCycle,
	}
	eng := sim.NewEngine(sim.WithQuantum(cfg.Quantum))
	m := &Machine{
		Cfg: cfg,
		Eng: eng,
		Net: network.New(eng, netCfg),
		Bar: sim.NewBarrier(eng, cfg.Nodes, cfg.BarrierLatency),
	}
	m.stalls = make([]sim.Time, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		m.Mems = append(m.Mems, mem.New(i, mem.Config{BlockSize: cfg.BlockSize}))
	}
	m.VM = vm.NewSystem(m.Mems)
	for i := 0; i < cfg.Nodes; i++ {
		m.Caches = append(m.Caches, cache.New(cfg.CacheSize, cfg.CacheWays, cfg.BlockSize, cfg.Seed+uint64(i)*0x9E37))
		m.TLBs = append(m.TLBs, cache.NewTLB(cfg.TLBEntries))
		m.Procs = append(m.Procs, &Proc{
			m: m, node: i,
			tlb: m.TLBs[i], cc: m.Caches[i], pt: m.VM.Table(i),
		})
	}
	return m
}

// SetMemSystem attaches the memory system. It must be called exactly once
// before AllocShared or Run.
func (m *Machine) SetMemSystem(sys MemSystem) {
	if m.Sys != nil {
		panic("machine: memory system already attached")
	}
	m.Sys = sys
}

// AllocShared reserves a shared segment and lets the memory system
// prepare it (home frames, directories). Allocation is a setup-time
// operation and costs no simulated cycles, mirroring the paper's
// unmeasured initialisation.
func (m *Machine) AllocShared(name string, size uint64, place vm.Placement, mode int) *vm.Segment {
	if m.Sys == nil {
		panic("machine: AllocShared before SetMemSystem")
	}
	if mode == 0 {
		mode = vm.ModeUser // the memory system's default protocol mode
	}
	seg := m.VM.AllocShared(name, size, place, mode)
	m.Sys.SetupSegment(seg)
	return seg
}

// AllocPrivate reserves node-private memory mapped from the node's DRAM.
func (m *Machine) AllocPrivate(node int, size uint64) mem.VA {
	return m.VM.AllocPrivate(node, size)
}

// StealCycles charges n cycles of protocol work against node's compute
// processor, to be absorbed at its next reference. Software Tempest
// implementations use it: their handlers run on the main CPU.
func (m *Machine) StealCycles(node int, n sim.Time) {
	m.stalls[node] += n
}

// Result summarises one run.
type Result struct {
	// Cycles is the full execution time: the latest cycle any processor
	// reached.
	Cycles sim.Time
	// ROICycles is the measured region (between ROIStart and ROIEnd), or
	// Cycles when no region was marked.
	ROICycles sim.Time
	// Counters aggregates processor, memory-system, and network events.
	Counters *stats.Counters
	// Net is the interconnect traffic summary.
	Net network.Stats
}

// Run executes body once per node as an SPMD program and returns the
// result. It can only be called once per machine.
func (m *Machine) Run(body func(*Proc)) (Result, error) {
	if m.Sys == nil {
		return Result{}, fmt.Errorf("machine: Run before SetMemSystem")
	}
	if m.ran {
		return Result{}, fmt.Errorf("machine: Run called twice")
	}
	m.ran = true
	for _, p := range m.Procs {
		p := p
		p.Ctx = m.Eng.Spawn(fmt.Sprintf("cpu%d", p.node), func(c *sim.Context) {
			body(p)
		})
	}
	if err := m.Eng.Run(); err != nil {
		return Result{}, err
	}
	var res Result
	var roiStart, roiEnd sim.Time
	for _, p := range m.Procs {
		if p.Ctx.Time() > res.Cycles {
			res.Cycles = p.Ctx.Time()
		}
		if p.roiStart > roiStart {
			roiStart = p.roiStart
		}
		if p.roiEnd > roiEnd {
			roiEnd = p.roiEnd
		}
	}
	res.ROICycles = res.Cycles
	if roiEnd > roiStart {
		res.ROICycles = roiEnd - roiStart
	}
	res.Counters = stats.NewCounters()
	for _, p := range m.Procs {
		p.foldCounters(res.Counters)
	}
	res.Counters.Merge(m.Sys.Counters())
	res.Net = m.Net.Stats()
	res.Counters.Add("net.packets.request", res.Net.VNets[network.VNetRequest].Packets)
	res.Counters.Add("net.packets.reply", res.Net.VNets[network.VNetReply].Packets)
	res.Counters.Add("net.queueing.request", res.Net.VNets[network.VNetRequest].QueueingCycles)
	res.Counters.Add("net.queueing.reply", res.Net.VNets[network.VNetReply].QueueingCycles)
	res.Counters.Add("net.max_queue.request", res.Net.VNets[network.VNetRequest].MaxQueueDepth)
	res.Counters.Add("net.max_queue.reply", res.Net.VNets[network.VNetReply].MaxQueueDepth)
	// Engine dispatch counters: how protocol activations were hosted.
	// These describe simulator mechanics, not simulated behaviour —
	// equivalence tests that compare across dispatch hosts (inline vs
	// goroutine) exclude them.
	ds := m.Eng.DispatchStats()
	res.Counters.Add("engine.inline_dispatches", ds.InlineDispatches)
	res.Counters.Add("engine.inline_steps", ds.InlineSteps)
	res.Counters.Add("engine.goroutine_steps", ds.GoroutineSteps)
	res.Counters.Add("engine.inline_suspends", ds.InlineSuspends)
	res.Counters.Add("engine.goroutine_switches", ds.GoroutineSwitches)
	res.Counters.Add("engine.stepper_fallbacks", ds.StepperFallbacks)
	res.Counters.Add("engine.parks_avoided", ds.ParksAvoided)
	return res, nil
}

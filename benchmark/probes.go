package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/tempest-sim/tempest/internal/agent"
	"github.com/tempest-sim/tempest/internal/blizzard"
	"github.com/tempest-sim/tempest/internal/dirnnb"
	"github.com/tempest-sim/tempest/internal/harness"
	"github.com/tempest-sim/tempest/internal/machine"
	"github.com/tempest-sim/tempest/internal/network"
	"github.com/tempest-sim/tempest/internal/resultcache"
	"github.com/tempest-sim/tempest/internal/sim"
	"github.com/tempest-sim/tempest/internal/stache"
	"github.com/tempest-sim/tempest/internal/typhoon"
	"github.com/tempest-sim/tempest/internal/vm"
)

// The microprobes give each layer a unit cost in host time by calling
// only the layer's public API from here. They are short — a traced run
// has to fit the same twenty seconds as a timed one — so each reports
// the median of probeReps repetitions of a few tens of milliseconds.
// They explain the end-to-end metrics; none of them is bounded.
const probeReps = 3

// probeMedian runs fn probeReps times and returns the median of its
// results.
func probeMedian(fn func() (float64, error)) (float64, error) {
	vals := make([]float64, 0, probeReps)
	for i := 0; i < probeReps; i++ {
		v, err := fn()
		if err != nil {
			return 0, err
		}
		vals = append(vals, v)
	}
	return median(vals), nil
}

func nsPer(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }
func usPer(d time.Duration, n int) float64 { return nsPer(d, n) / 1e3 }

// chainEvent reschedules itself one cycle on until left runs out, calling
// do (when set) each time it fires.
type chainEvent struct {
	eng  *sim.Engine
	left int
	gap  sim.Time
	do   func()
}

func (c *chainEvent) Fire() {
	if c.do != nil {
		c.do()
	}
	if c.left--; c.left > 0 {
		c.eng.AfterEvent(c.gap, c)
	}
}

// probeEvent: host ns to schedule and dispatch one event — a
// self-rescheduling Engine.AfterEvent chain, nothing else in the engine.
func probeEvent() (float64, error) {
	const n = 400_000
	eng := sim.NewEngine()
	eng.AfterEvent(1, &chainEvent{eng: eng, left: n, gap: 1})
	start := time.Now()
	err := eng.Run()
	return nsPer(time.Since(start), n), err
}

// probeCtxSwitch: host ns per goroutine-hosted context switch — two
// Spawn contexts that Sleep(1) in turn, so every Sleep hands the
// processor to the other context's goroutine.
func probeCtxSwitch() (float64, error) {
	const n = 40_000
	eng := sim.NewEngine()
	for i := 0; i < 2; i++ {
		eng.Spawn(fmt.Sprintf("pingpong%d", i), func(c *sim.Context) {
			for j := 0; j < n; j++ {
				c.Sleep(1)
			}
		})
	}
	start := time.Now()
	err := eng.Run()
	return nsPer(time.Since(start), 2*n), err
}

// probeStepperStep: host ns per inline stepper activation — an event
// unparks a SpawnStepperDaemon context whose step does one cycle of work
// and idles again, the shape of every protocol-agent dispatch. The
// figure includes the event that causes the activation.
func probeStepperStep() (float64, error) {
	const n = 300_000
	eng := sim.NewEngine()
	steps := 0
	st := eng.SpawnStepperDaemon("stepper", func(c *sim.Context) bool {
		c.Advance(1)
		steps++
		return false
	}, "idle")
	ev := &chainEvent{eng: eng, left: n, gap: 2}
	ev.do = func() { st.Unpark(eng.Now()) }
	eng.AfterEvent(1, ev)
	start := time.Now()
	err := eng.Run()
	d := time.Since(start)
	// The stepper also runs once when the engine starts, before any event.
	if err == nil && steps < n {
		err = fmt.Errorf("stepper probe ran %d steps, want at least %d", steps, n)
	}
	return nsPer(d, n), err
}

// probeBarrier: host ns per barrier round of eight contexts.
func probeBarrier() (float64, error) {
	const parties, rounds = 8, 5_000
	eng := sim.NewEngine()
	bar := sim.NewBarrier(eng, parties, 11)
	for i := 0; i < parties; i++ {
		eng.Spawn(fmt.Sprintf("cpu%d", i), func(c *sim.Context) {
			for j := 0; j < rounds; j++ {
				c.Advance(1)
				bar.Arrive(c)
			}
		})
	}
	start := time.Now()
	err := eng.Run()
	return nsPer(time.Since(start), rounds), err
}

// probeSendDeliver: host ns for one packet's Send, delivery, Dequeue and
// Free on a two-node network.New, driven from an event chain so no
// context switch is in the figure (the driving event is). linkBW 0 is
// the ideal network; 4 takes the port-claim and two-phase-fire path.
func probeSendDeliver(linkBW int) (float64, error) {
	const n = 200_000
	eng := sim.NewEngine()
	net := network.New(eng, network.Config{Nodes: 2, Latency: 11, LinkBytesPerCycle: linkBW})
	ep := net.Endpoint(1)
	received := 0
	args := []uint64{0x1000, 1}
	ev := &chainEvent{eng: eng, left: n, gap: 40}
	ev.do = func() {
		for p := ep.Dequeue(); p != nil; p = ep.Dequeue() {
			received++
			net.Free(p)
		}
		net.Send(&network.Packet{Src: 0, Dst: 1, VNet: network.VNetRequest, Handler: 1, Args: args})
	}
	eng.AfterEvent(1, ev)
	start := time.Now()
	err := eng.Run()
	d := time.Since(start)
	if err == nil && received != n-1 {
		err = fmt.Errorf("send/deliver probe received %d packets, want %d", received, n-1)
	}
	return nsPer(d, n), err
}

type nopDispatcher struct{ n int }

func (d *nopDispatcher) DispatchMessage(c *sim.Context, pkt *network.Packet) { d.n++ }

// probeAgentDispatch: host ns for one message sent to, delivered at and
// dispatched by an agent.Spawn core with a no-op dispatcher. Packets
// leave every five cycles, so with occ 20 each dispatch finds the agent
// busy and takes the occupancy-wait path. The figure includes the send
// and delivery that feed the agent; subtract network.send_deliver_ns for
// the agent's own part.
func probeAgentDispatch(occ sim.Time) (float64, error) {
	const n = 200_000
	eng := sim.NewEngine()
	net := network.New(eng, network.Config{Nodes: 2, Latency: 11})
	disp := &nopDispatcher{}
	agent.Spawn(eng, net, 1, "agent", "idle", occ, disp, nil)
	args := []uint64{0x1000, 1}
	ev := &chainEvent{eng: eng, left: n, gap: 5}
	ev.do = func() {
		net.Send(&network.Packet{Src: 0, Dst: 1, VNet: network.VNetRequest, Handler: 1, Args: args})
	}
	eng.AfterEvent(1, ev)
	start := time.Now()
	err := eng.Run()
	d := time.Since(start)
	if err == nil && disp.n != n {
		err = fmt.Errorf("agent probe dispatched %d messages, want %d", disp.n, n)
	}
	return nsPer(d, n), err
}

// probeRefs: host ns per Proc.ReadU64 on a one-node Typhoon/Stache
// machine — over a cache-resident array (every reference hits) and over
// one eight times the cache at block stride (every reference misses to
// local memory).
func probeRefs() (hitNS, missNS float64, err error) {
	const cacheBytes, n = 64 << 10, 400_000
	cfg := machine.DefaultConfig()
	cfg.Nodes, cfg.CacheSize = 1, cacheBytes
	m := machine.New(cfg)
	typhoon.New(m, stache.New())
	small := m.AllocShared("resident", cacheBytes/2, vm.OnNode{Node: 0}, 0)
	big := m.AllocShared("streaming", 8*cacheBytes, vm.OnNode{Node: 0}, 0)
	var hit, miss time.Duration
	_, err = m.Run(func(p *machine.Proc) {
		for off := uint64(0); off < small.Size; off += 8 { // fill the cache
			p.ReadU64(small.At(off))
		}
		start := time.Now()
		for i, off := 0, uint64(0); i < n; i, off = i+1, (off+8)%small.Size {
			p.ReadU64(small.At(off))
		}
		hit = time.Since(start)
		stride := uint64(cfg.BlockSize)
		start = time.Now()
		for i, off := 0, uint64(0); i < n/4; i, off = i+1, (off+stride)%big.Size {
			p.ReadU64(big.At(off))
		}
		miss = time.Since(start)
	})
	return nsPer(hit, n), nsPer(miss, n/4), err
}

// probeBuild: host µs to build one reduced-scale machine and attach
// Typhoon/Stache — what every simulated point pays before its first
// cycle.
func probeBuild() (float64, error) {
	const n = 20
	cfg := harness.MachineConfig(harness.ScaleReduced, 64<<10)
	start := time.Now()
	for i := 0; i < n; i++ {
		typhoon.New(machine.New(cfg), stache.New())
	}
	return usPer(time.Since(start), n), nil
}

// missProbe is one protocol's remote-miss figures.
type missProbe struct {
	readNS, upgradeNS float64 // host time per remote read miss / write upgrade
	readCycles        float64 // simulated cycles per remote read miss (exact)
}

// probeRemoteMiss: on a two-node machine with the given memory system,
// node 1 reads one word of every block of a segment homed on node 0 (a
// remote read miss each), then writes each (an upgrade each). Host time
// per operation is the whole miss path — CPU fault, request, home
// handler, reply, resume; cycles per miss are simulated and repeat
// exactly.
func probeRemoteMiss(attach func(*machine.Machine)) (missProbe, error) {
	const blocks = 4096
	cfg := machine.DefaultConfig()
	cfg.Nodes = 2
	m := machine.New(cfg)
	attach(m)
	bs := uint64(cfg.BlockSize)
	seg := m.AllocShared("remote", blocks*bs, vm.OnNode{Node: 0}, 0)
	var out missProbe
	_, err := m.Run(func(p *machine.Proc) {
		if p.ID() != 1 {
			return
		}
		c0, start := p.Ctx.Time(), time.Now()
		for b := uint64(0); b < blocks; b++ {
			p.ReadU64(seg.At(b * bs))
		}
		out.readNS = nsPer(time.Since(start), blocks)
		out.readCycles = float64(p.Ctx.Time()-c0) / blocks
		start = time.Now()
		for b := uint64(0); b < blocks; b++ {
			p.WriteU64(seg.At(b*bs), b)
		}
		out.upgradeNS = nsPer(time.Since(start), blocks)
	})
	return out, err
}

func attachStache(m *machine.Machine)   { typhoon.New(m, stache.New()) }
func attachDirNNB(m *machine.Machine)   { dirnnb.New(m) }
func attachBlizzard(m *machine.Machine) { blizzard.NewStache(m, blizzard.Config{}) }

// probeHarness: host µs for the per-point work the sweep plumbing does
// around a result: key derivation, wire encode and decode, and rendering
// the sweep's tables.
func probeHarness(e *env, pts []harness.Point, results []harness.PointResult) (keyUS, encUS, decUS, renderUS float64, err error) {
	const rounds = 20
	n := rounds * len(pts)
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for _, pt := range pts {
			if _, err = harness.PointKey(e.code, pt); err != nil {
				return
			}
		}
	}
	keyUS = usPer(time.Since(start), n)
	encoded := make([][]byte, len(pts))
	start = time.Now()
	for r := 0; r < rounds; r++ {
		for i, pt := range pts {
			encoded[i] = pt.Encode()
		}
	}
	encUS = usPer(time.Since(start), n)
	start = time.Now()
	for r := 0; r < rounds; r++ {
		for _, enc := range encoded {
			if _, err = harness.DecodePoint(enc); err != nil {
				return
			}
		}
	}
	decUS = usPer(time.Since(start), n)
	start = time.Now()
	for r := 0; r < rounds; r++ {
		if err = renderSweep(io.Discard, pts, results); err != nil {
			return
		}
	}
	renderUS = usPer(time.Since(start), rounds)
	return
}

// cacheProbe is the result cache's unit costs.
type cacheProbe struct {
	getDisk    summary // µs per Get answered from disk (fresh handle)
	getMemUS   float64 // µs per Get answered from memory (same handle again)
	putUS      float64 // µs per Put (memory insert + durable-by-rename disk write)
	entryBytes float64 // mean encoded entry size
}

// probeCache measures Get and Put on the entries set-up stored for the
// cache set. Disk reads are timed one by one, seven fresh handles over
// the set, so that the ninetieth percentile has ten samples beyond it.
func probeCache(e *env) (cacheProbe, error) {
	var out cacheProbe
	keys := make([]resultcache.Key, len(e.cachePts))
	for i, pt := range e.cachePts {
		k, err := harness.PointKey(e.code, pt)
		if err != nil {
			return out, err
		}
		keys[i] = k
	}
	var entries []*resultcache.Entry
	var disk []float64
	var mem time.Duration
	const handles = 7
	for h := 0; h < handles; h++ {
		c, err := resultcache.New(resultcache.Options{Dir: e.cacheDir})
		if err != nil {
			return out, err
		}
		entries = entries[:0]
		for _, k := range keys {
			start := time.Now()
			en, err := c.Get(k)
			disk = append(disk, usPer(time.Since(start), 1))
			if err != nil || en == nil {
				return out, fmt.Errorf("cache probe: key %s is not in the warm cache (%v)", k, err)
			}
			entries = append(entries, en)
		}
		start := time.Now()
		for _, k := range keys {
			c.Get(k)
		}
		mem += time.Since(start)
	}
	out.getDisk = summarize(disk)
	out.getMemUS = usPer(mem, handles*len(keys))
	for _, en := range entries {
		out.entryBytes += float64(len(en.Encode())) / float64(len(entries))
	}
	dir, err := os.MkdirTemp(e.runDir, "put-")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)
	c, err := resultcache.New(resultcache.Options{Dir: filepath.Join(dir, "cache")})
	if err != nil {
		return out, err
	}
	start := time.Now()
	for _, en := range entries {
		c.Put(en)
	}
	out.putUS = usPer(time.Since(start), len(entries))
	if s := c.Stats(); s.Errors > 0 {
		return out, fmt.Errorf("cache probe: %d disk write errors", s.Errors)
	}
	return out, nil
}

// probeLeaseRTT: host µs from Coordinator.Submit of one point to its
// verified result, the point leased over the unix socket to a worker
// that answers from its cache. A coordinator answers a repeated point
// from its task table, so each of the seven rounds brings up a new one.
func probeLeaseRTT(e *env) (summary, error) {
	var rtts []float64
	for round := 0; round < 7; round++ {
		fl, err := startFleet(e, 2)
		if err != nil {
			return summary{}, err
		}
		for _, pt := range e.cachePts {
			start := time.Now()
			_, err := fl.coord.Submit(context.Background(), harness.Batch{Points: []harness.Point{pt}, PointTimeout: pointTimeout})
			rtts = append(rtts, usPer(time.Since(start), 1))
			if err != nil {
				fl.stop()
				return summary{}, err
			}
		}
		fl.stop()
	}
	return summarize(rtts), nil
}

// peakRSSMB reads the process's peak resident set from
// /proc/self/status (VmHWM); 0 where that file does not exist.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	var kb float64
	for _, line := range strings.Split(string(data), "\n") {
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024
		}
	}
	return 0
}

package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/tempest-sim/tempest/internal/harness"
	"github.com/tempest-sim/tempest/internal/machine"
)

// layerRun is one workload's traced run.
type layerRun struct {
	metrics           map[string]float64
	attempted, failed int
	traceFile         string
	err               error // the run could not produce its metrics at all
}

// traceWorkload is the traced run, separate from the timed one: a few
// untraced passes as the baseline, the traced passes, then the
// microprobes and the multi-core ratios. Every per-layer metric is
// reported for every workload; a count the workload's points do not
// exercise reads 0.
func (e *env) traceWorkload(w *workload) layerRun {
	lr := layerRun{attempted: len(e.cachePts), failed: e.setupFailed}
	pts := w.points(e.seed)
	ref, err := e.reference(w, pts)
	if err != nil {
		lr.err = err
		return lr
	}
	// A simulating pass takes seconds, so one of each; the cache-served
	// ones take milliseconds, so enough of each for a steady median.
	baselinePasses, tracedPasses := 1, 1
	if w.kind != kindSimulate {
		baselinePasses, tracedPasses = 40, 10
	}
	check := func(what string, out passOutcome) bool {
		lr.attempted += len(pts)
		if out.err != nil {
			fmt.Fprintf(e.stderr, "benchmark: %s %s FAILED: %v\n", w.name, what, out.err)
			lr.failed += len(pts)
			return false
		}
		got := sigsOf(pts, out.results)
		if ref == nil {
			ref = got
		}
		lr.failed += compareSigs(e.stderr, w.name+" "+what, ref, got)
		return true
	}

	var before, after runtime.MemStats
	var baseS, tracedS []float64
	var last passOutcome
	tr := newTracer()
	runtime.ReadMemStats(&before)
	for i := 0; i < baselinePasses; i++ {
		if out := w.runPass(e, pts, nil, nil); check(fmt.Sprintf("baseline pass %d", i), out) {
			baseS = append(baseS, out.dur.Seconds())
		}
	}
	runtime.ReadMemStats(&after)
	for i := 0; i < tracedPasses; i++ {
		tr.pass = i
		mark := len(tr.spans)
		out := w.runPass(e, pts, tr, nil)
		if !check(fmt.Sprintf("traced pass %d", i), out) {
			tr.spans, tr.open = tr.spans[:mark], nil // drop the failed pass's spans
			continue
		}
		tracedS = append(tracedS, out.dur.Seconds())
		last = out
	}
	if len(baseS) == 0 || len(tracedS) == 0 {
		lr.err = fmt.Errorf("no pass of %s succeeded", w.name)
		return lr
	}

	v := make(map[string]float64)
	lr.metrics = v
	passes := float64(len(tracedS))

	// Span self times, per traced pass.
	self := selfByName(tr.spans)
	perPass := func(name string) float64 { return self[name].Seconds() / passes }
	v["machine.build_s"] = perPass("machine.build")
	v["machine.run_s"] = perPass("machine.run")
	v["apps.setup_s"] = perPass("apps.setup")
	v["apps.verify_s"] = perPass("apps.verify")
	v["harness.point_key_s"] = perPass("harness.point_key")
	v["harness.render_s"] = perPass("harness.render")
	v["resultcache.get_s"] = perPass("resultcache.get")
	v["fleet.lease_rtt_s"] = perPass("fleet.lease_rtt")
	v["bench.trace_overhead_frac"] = median(tracedS)/median(baseS) - 1
	v["bench.point_self_frac"] = pointSelfFrac(tr.spans)

	// Exact counts over one traced pass.
	sum := func(names ...string) float64 {
		var n uint64
		for _, r := range last.results {
			if r.Res.Counters == nil {
				continue
			}
			for _, name := range names {
				n += r.Res.Counters.Get(name)
			}
		}
		return float64(n)
	}
	var payload float64
	for _, r := range last.results {
		for _, vn := range r.Res.Net.VNets {
			payload += float64(vn.PayloadBytes)
		}
	}
	v["sim.inline_steps"] = sum("engine.inline_steps")
	v["sim.goroutine_switches"] = sum("engine.goroutine_switches")
	v["network.packets"] = sum("net.packets.request", "net.packets.reply")
	v["network.payload_bytes"] = payload
	v["network.queueing_cycles"] = sum("net.queueing.request", "net.queueing.reply")
	v["agent.dispatches"] = sum("np.dispatches", "dirnnb.dir_messages")
	v["agent.occ_wait_cycles"] = sum("np.occ_wait_cycles", "dirnnb.occ_wait_cycles")
	v["machine.refs"] = sum("cpu.loads", "cpu.stores")
	v["machine.cache_misses"] = sum("cpu.cache_misses")
	v["stache.remote_faults"] = sum("stache.remote_faults")
	v["stache.invals_sent"] = sum("stache.invals_sent")
	v["dirnnb.remote_misses"] = sum("dirnnb.remote_misses")
	v["typhoon.np_dispatches"] = sum("np.dispatches")
	v["model.typhoon_over_dirnnb_geomean"] = typhoonOverDirNNB(pts, last.results)
	v["resultcache.hits"] = float64(last.cache.Hits)
	v["resultcache.misses"] = float64(last.cache.Misses)
	v["resultcache.corrupt"] = float64(last.cache.Corrupt)
	v["fleet.leases"] = float64(last.fleet.Leases)
	v["fleet.reassigned"] = float64(last.fleet.Reassigned)
	v["fleet.rejected"] = float64(last.fleet.Rejected)
	v["fleet.duplicates"] = float64(last.fleet.Duplicates)
	v["runtime.gc_cycles_per_pass"] = float64(after.NumGC-before.NumGC) / float64(len(baseS))
	v["runtime.gc_pause_ms_per_pass"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6 / float64(len(baseS))
	v["resultcache.code_digest_ms"] = e.codeDigestMS

	if err := e.probeLayers(v, pts, last.results); err != nil {
		lr.err = err
		return lr
	}
	if err := e.probeRatios(v); err != nil {
		lr.err = err
		return lr
	}
	contended := len(pts) > 0 && pts[0].Cfg.LinkBytesPerCycle > 0
	estimateShares(v, self["machine.run"].Seconds()/passes*1e9, contended)
	v["runtime.peak_rss_mb"] = peakRSSMB()

	lr.traceFile = filepath.Join(filepath.Dir(e.runDir), "trace-"+w.name+".json")
	f, err := os.Create(lr.traceFile)
	if err == nil {
		err = writeChromeTrace(f, tr.spans)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		lr.err = fmt.Errorf("writing the trace: %w", err)
		return lr
	}
	fmt.Fprintf(e.stderr, "benchmark: %s: %d spans written to %s\n", w.name, len(tr.spans), lr.traceFile)
	return lr
}

// pointSelfFrac is the share of the point spans' time that no child span
// covers: how much of a point the layer spans leave unexplained.
func pointSelfFrac(spans []span) float64 {
	var self, total time.Duration
	for i, d := range selfTimes(spans) {
		if spans[i].Name == "point" {
			self += d
			total += spans[i].End - spans[i].Start
		}
	}
	if total == 0 {
		return 0
	}
	return float64(self) / float64(total)
}

// probeLayers runs the microprobes and files their unit costs.
func (e *env) probeLayers(v map[string]float64, pts []harness.Point, results []harness.PointResult) error {
	for _, p := range []struct {
		name string
		fn   func() (float64, error)
	}{
		{"sim.event_ns", probeEvent},
		{"sim.ctx_switch_ns", probeCtxSwitch},
		{"sim.stepper_step_ns", probeStepperStep},
		{"sim.barrier_round_ns", probeBarrier},
		{"network.send_deliver_ns", func() (float64, error) { return probeSendDeliver(0) }},
		{"network.send_deliver_contended_ns", func() (float64, error) { return probeSendDeliver(contendedLinkBW) }},
		{"agent.dispatch_ns", func() (float64, error) { return probeAgentDispatch(0) }},
		{"agent.dispatch_occupied_ns", func() (float64, error) { return probeAgentDispatch(contendedOccupancy) }},
		{"machine.build_us", probeBuild},
	} {
		val, err := probeMedian(p.fn)
		if err != nil {
			return fmt.Errorf("probe %s: %w", p.name, err)
		}
		v[p.name] = val
	}

	var hits, misses []float64
	for i := 0; i < probeReps; i++ {
		h, m, err := probeRefs()
		if err != nil {
			return fmt.Errorf("probe machine refs: %w", err)
		}
		hits, misses = append(hits, h), append(misses, m)
	}
	v["machine.hit_ref_ns"], v["machine.local_miss_ref_ns"] = median(hits), median(misses)

	for _, p := range []struct {
		layer  string
		attach func(*machine.Machine)
	}{{"stache", attachStache}, {"dirnnb", attachDirNNB}, {"blizzard", attachBlizzard}} {
		var reads, upgrades []float64
		var cycles float64
		for i := 0; i < probeReps; i++ {
			mp, err := probeRemoteMiss(p.attach)
			if err != nil {
				return fmt.Errorf("probe %s remote miss: %w", p.layer, err)
			}
			reads, upgrades, cycles = append(reads, mp.readNS), append(upgrades, mp.upgradeNS), mp.readCycles
		}
		v[p.layer+".read_miss_ns"] = median(reads)
		v[p.layer+".read_miss_cycles"] = cycles
		if p.layer == "stache" {
			v["stache.write_upgrade_ns"] = median(upgrades)
		}
	}

	keyUS, encUS, decUS, renderUS, err := probeHarness(e, pts, results)
	if err != nil {
		return fmt.Errorf("probe harness: %w", err)
	}
	v["harness.point_key_us"], v["harness.point_encode_us"] = keyUS, encUS
	v["harness.point_decode_us"], v["harness.render_us"] = decUS, renderUS

	cp, err := probeCache(e)
	if err != nil {
		return err
	}
	v["resultcache.get_disk_us"] = cp.getDisk.Median
	v["resultcache.get_disk_p90_us"] = cp.getDisk.Tail
	v["resultcache.get_mem_us"] = cp.getMemUS
	v["resultcache.put_us"] = cp.putUS
	v["resultcache.entry_bytes"] = cp.entryBytes

	rtt, err := probeLeaseRTT(e)
	if err != nil {
		return fmt.Errorf("probe fleet lease: %w", err)
	}
	v["fleet.lease_rtt_us"], v["fleet.lease_rtt_p90_us"] = rtt.Median, rtt.Tail
	return nil
}

// probeRatios measures, on four miss-heavy points (ocean and mp3d, small
// set, 4KB caches, both systems), what the host's other processors cost
// or buy. The base is the configuration a user gets without flags —
// GOMAXPROCS as the process found it, one shard, one worker — against
// the same points at GOMAXPROCS 1, on two scheduler shards, and on a
// worker pool as wide as GOMAXPROCS. Each ratio's bases go to standard
// error. Each configuration runs twice and the faster run counts.
func (e *env) probeRatios(v map[string]float64) error {
	set := func(shards int) []harness.Point {
		return fig3Slice(e.seed, harness.SimParams{Shards: shards}, []string{"ocean", "mp3d"}, harness.SetSmall, 4)
	}
	var grants, width float64
	best := func(pts []harness.Point, workers int) (float64, error) {
		fastest := 0.0
		for i := 0; i < 2; i++ {
			start := time.Now()
			results, err := submitLocal(pts, workers, harness.CacheParams{})
			if err != nil {
				return 0, err
			}
			if s := time.Since(start).Seconds(); fastest == 0 || s < fastest {
				fastest = s
			}
			grants, width = 0, 0
			for _, r := range results {
				grants += float64(r.Res.Counters.Get("engine.window.grants"))
				width += float64(r.Res.Counters.Get("engine.window.width_cycles"))
			}
		}
		return fastest, nil
	}
	one, err := best(set(1), 1) // the process runs at GOMAXPROCS 1
	if err != nil {
		return err
	}
	procs := e.hostProcs
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	base, err := best(set(1), 1)
	if err != nil {
		return err
	}
	wide, err := best(set(1), procs)
	if err != nil {
		return err
	}
	sharded, err := best(set(2), 1) // last: grants and width are this configuration's
	if err != nil {
		return err
	}
	v["sim.gomaxprocs1_ratio"] = one / base
	v["sim.shards2_ratio"] = sharded / base
	v["harness.jN_speedup"] = base / wide
	v["sim.window_grants"] = grants
	v["sim.window_round_ns"], v["sim.window_mean_width"] = 0, 0
	if grants > 0 {
		v["sim.window_round_ns"] = (sharded - base) * 1e9 / grants
		v["sim.window_mean_width"] = width / grants
	}
	fmt.Fprintf(e.stderr, "benchmark: ratio probe (4 points, nproc %d): base %.4fs at gomaxprocs %d/shards 1/workers 1; gomaxprocs 1 %.4fs; shards 2 %.4fs (%.0f grants); workers %d %.4fs\n",
		runtime.NumCPU(), base, procs, one, sharded, grants, procs, wide)
	return nil
}

// estimateShares files est_share.*: each layer's count times its probed
// unit cost, as a share of the traced pass's machine.run self time
// (runNS). It is a stated model, not a measurement — inside machine.run
// there are no spans yet — and it predicts the ceiling of a layer
// optimisation: a faster layer saves at most its share. The probed costs
// overlap (an agent dispatch includes the send that feeds it, a remote
// miss includes its messages and context switches), so each layer keeps
// only what the layers below it have not already been charged:
//
//	sim      = goroutine switches·ctx_switch + delivery events·event + inline steps·(stepper_step − event)
//	network  = packets·(send_deliver − its events)
//	agent    = dispatches·(dispatch − send_deliver − (stepper_step − event))
//	machine  = refs·hit_ref + cache misses·(local_miss_ref − hit_ref)
//	protocol = remote misses·(read_miss − 2·dispatch − 2·ctx_switch − local_miss_ref), per system
func estimateShares(v map[string]float64, runNS float64, contended bool) {
	names := []string{"sim", "network", "agent", "machine", "protocol", "unattributed"}
	for _, n := range names {
		v["est_share."+n] = 0
	}
	if runNS <= 0 {
		return // nothing simulated: the shares have no base
	}
	pos := func(x float64) float64 {
		if x < 0 {
			return 0
		}
		return x
	}
	event := v["sim.event_ns"]
	sendDeliver, dispatch, events := v["network.send_deliver_ns"], v["agent.dispatch_ns"], 1.0
	if contended {
		sendDeliver, dispatch, events = v["network.send_deliver_contended_ns"], v["agent.dispatch_occupied_ns"], 2.0
	}
	activation := pos(v["sim.stepper_step_ns"] - event)
	packets := v["network.packets"]
	sim := v["sim.goroutine_switches"]*v["sim.ctx_switch_ns"] + packets*events*event + v["sim.inline_steps"]*activation
	network := packets * pos(sendDeliver-(events+1)*event)
	agent := v["agent.dispatches"] * pos(dispatch-sendDeliver-activation)
	machine := v["machine.refs"]*v["machine.hit_ref_ns"] +
		v["machine.cache_misses"]*pos(v["machine.local_miss_ref_ns"]-v["machine.hit_ref_ns"])
	below := 2*dispatch + 2*v["sim.ctx_switch_ns"] + v["machine.local_miss_ref_ns"]
	protocol := v["stache.remote_faults"]*pos(v["stache.read_miss_ns"]-below) +
		v["dirnnb.remote_misses"]*pos(v["dirnnb.read_miss_ns"]-below)
	v["est_share.sim"] = sim / runNS
	v["est_share.network"] = network / runNS
	v["est_share.agent"] = agent / runNS
	v["est_share.machine"] = machine / runNS
	v["est_share.protocol"] = protocol / runNS
	v["est_share.unattributed"] = 1 - (sim+network+agent+machine+protocol)/runNS
}

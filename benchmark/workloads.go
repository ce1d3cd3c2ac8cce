package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/tempest-sim/tempest/internal/apps"
	"github.com/tempest-sim/tempest/internal/apps/em3d"
	"github.com/tempest-sim/tempest/internal/dirnnb"
	"github.com/tempest-sim/tempest/internal/fleet"
	"github.com/tempest-sim/tempest/internal/harness"
	"github.com/tempest-sim/tempest/internal/machine"
	"github.com/tempest-sim/tempest/internal/resultcache"
	"github.com/tempest-sim/tempest/internal/sim"
	"github.com/tempest-sim/tempest/internal/stache"
	"github.com/tempest-sim/tempest/internal/typhoon"
)

// How a workload's pass gets its results.
const (
	kindSimulate  = iota // every point simulates (Point.NoCache)
	kindCacheWarm        // every point is a disk hit on a fresh cache handle
	kindFleetWarm        // every point is leased to a worker that answers from its cache
)

// pointTimeout bounds one point's wall-clock run; the slowest point
// takes about a second, so a point that reaches it is hung.
const pointTimeout = 60 * time.Second

// workload is one set of inputs the benchmark runs. The point sets are
// slices of the reduced Figure 3/Figure 4 sweep that cmd/bench runs, cut
// so that a pass takes one to three seconds on a two-core host: the
// contract allows about twenty seconds for a whole run, set-up included.
type workload struct {
	name string
	// why is the reason the workload exists; BENCHMARK.json carries the
	// same sentence (the tests compare them).
	why    string
	kind   int
	points func(seed uint64) []harness.Point
}

// The contended configuration cmd/bench and the conformance corpus pin.
const (
	contendedLinkBW    = 4
	contendedOccupancy = 20
)

var workloads = []workload{
	{
		name:   "fig_large",
		why:    "large-set 64KB points of appbt, ocean and em3d on both systems plus the EM3D Figure 4 triple with the custom update protocol: the long points that dominate time-to-figures",
		kind:   kindSimulate,
		points: figLargePoints,
	},
	{
		name: "hit_path",
		why:  "ten small-set 64KB points whose data fits the cache: the machine and cache reference path does the work, so miss-path changes must not move it",
		kind: kindSimulate,
		points: func(seed uint64) []harness.Point {
			return fig3Slice(seed, harness.SimParams{}, harness.BenchNames, harness.SetSmall, 64)
		},
	},
	{
		name: "miss_path",
		why:  "the same ten small-set points at 4KB caches: network, agent, Stache handlers and the DirNNB directory do the work, so hit-path changes must not move it",
		kind: kindSimulate,
		points: func(seed uint64) []harness.Point {
			return fig3Slice(seed, harness.SimParams{}, harness.BenchNames, harness.SetSmall, 4)
		},
	},
	{
		name: "miss_path_contended",
		why:  "the miss_path points with 4 B/cycle links and 20-cycle agents: port queueing, two-phase packet fire and agent occupancy, the paths an ideal-machine gain can cost",
		kind: kindSimulate,
		points: func(seed uint64) []harness.Point {
			sp := harness.SimParams{LinkBytesPerCycle: contendedLinkBW, OccupancyCycles: contendedOccupancy}
			return fig3Slice(seed, sp, harness.BenchNames, harness.SetSmall, 4)
		},
	},
	{
		name:   "sharded",
		why:    "ocean large-set and em3d small-set 4KB points on two scheduler shards: the window planner and round machinery do all the added work",
		kind:   kindSimulate,
		points: func(seed uint64) []harness.Point { return shardedPoints(seed, 2) },
	},
	{
		name:   "cache_warm",
		why:    "a 15-point sweep served from a warm disk cache through a fresh handle per pass: key derivation, entry read, decode and render do the work, the engine none",
		kind:   kindCacheWarm,
		points: cacheSetPoints,
	},
	{
		name:   "fleet_warm",
		why:    "the same 15 points through a client, a coordinator without a cache and two cache-backed workers on a unix socket: lease protocol, wire codec and double verification",
		kind:   kindFleetWarm,
		points: cacheSetPoints,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// seedPoint applies the benchmark seed to a generated point: the
// machine seed (cache replacement) and, for EM3D, the graph seed — which
// needs the explicit workload config, so a by-name em3d point is
// rewritten to carry one. Seed 1 is every app's committed seed; the
// rewritten point keys identically to the by-name one.
func seedPoint(pt harness.Point, seed uint64) harness.Point {
	pt.Cfg.Seed = seed
	if pt.EM3D == nil && pt.Bench == "em3d" {
		c := harness.EM3DConfig(pt.Scale, pt.Set)
		pt.EM3D = &c
	}
	if pt.EM3D != nil {
		c := *pt.EM3D
		c.Seed = seed
		pt.EM3D = &c
	}
	return pt
}

// fig3Slice returns the reduced Figure 3 points of the named apps at one
// data set and cache size, both systems, every one simulating.
func fig3Slice(seed uint64, sp harness.SimParams, names []string, set harness.DataSet, cacheKB int) []harness.Point {
	var out []harness.Point
	for _, pt := range harness.Fig3Points(harness.ScaleReduced, names, harness.Fig3Configs(harness.ScaleReduced), sp, true) {
		if pt.Set == set && pt.Cfg.CacheSize == cacheKB<<10 {
			pt.Group = "" // one point per group is left; nothing to sequence
			out = append(out, seedPoint(pt, seed))
		}
	}
	return out
}

// fig4Triple returns the three Figure 4 points (DirNNB, Typhoon/Stache,
// the custom update protocol) at one remote-edge percentage of the
// reduced small EM3D set, built the way harness.Figure4 builds them.
func fig4Triple(seed uint64, pct int, noCache bool) []harness.Point {
	var out []harness.Point
	for _, sys := range []harness.System{harness.SysDirNNB, harness.SysStache, harness.SysUpdate} {
		ecfg := harness.EM3DConfig(harness.ScaleReduced, harness.SetSmall)
		ecfg.PctRemote = pct
		pt := harness.Point{Cfg: harness.MachineConfig(harness.ScaleReduced, 0), System: sys, EM3D: &ecfg, NoCache: noCache}
		out = append(out, seedPoint(pt, seed))
	}
	return out
}

func figLargePoints(seed uint64) []harness.Point {
	pts := fig3Slice(seed, harness.SimParams{}, []string{"appbt", "ocean", "em3d"}, harness.SetLarge, 64)
	return append(pts, fig4Triple(seed, 20, true)...)
}

func shardedPoints(seed uint64, shards int) []harness.Point {
	sp := harness.SimParams{Shards: shards}
	pts := fig3Slice(seed, sp, []string{"ocean"}, harness.SetLarge, 64)
	return append(pts, fig3Slice(seed, sp, []string{"em3d"}, harness.SetSmall, 4)...)
}

// cacheSetPoints is the sweep the cache-served workloads run and set-up
// warms: the reduced Figure 3 of appbt and ocean on the small set (with
// the sweep's own witness dedup, so clean runs alias larger caches) plus
// the Figure 4 triple at 0% remote edges.
func cacheSetPoints(seed uint64) []harness.Point {
	var out []harness.Point
	configs := harness.Fig3Configs(harness.ScaleReduced)
	for _, pt := range harness.Fig3Points(harness.ScaleReduced, []string{"appbt", "ocean"}, configs, harness.SimParams{}, false) {
		if pt.Set == harness.SetSmall {
			out = append(out, seedPoint(pt, seed))
		}
	}
	return append(out, fig4Triple(seed, 0, false)...)
}

// sig is what the correctness gate compares per point: the simulated
// times and a hash over every counter that describes simulated
// behaviour. engine.* counters describe how this host ran the
// simulation (they change with the shard count and are absent from
// cached results), so they stay out.
type sig struct {
	Label    string `json:"label"`
	Cycles   uint64 `json:"cycles"`
	ROI      uint64 `json:"roi"`
	Counters string `json:"counters"`
}

func sigOf(pt harness.Point, res machine.Result) sig {
	h := sha256.New()
	if res.Counters != nil {
		for _, name := range res.Counters.Names() {
			if strings.HasPrefix(name, "engine.") {
				continue
			}
			fmt.Fprintf(h, "%s=%d\n", name, res.Counters.Get(name))
		}
	}
	return sig{
		Label:    pt.Label(),
		Cycles:   uint64(res.Cycles),
		ROI:      uint64(res.ROICycles),
		Counters: hex.EncodeToString(h.Sum(nil))[:16],
	}
}

func sigsOf(pts []harness.Point, results []harness.PointResult) []sig {
	out := make([]sig, len(results))
	for i := range results {
		out[i] = sigOf(pts[i], results[i].Res)
	}
	return out
}

// compareSigs counts the points of got that differ from want, naming
// each on w.
func compareSigs(w io.Writer, what string, want, got []sig) (failed int) {
	if len(want) != len(got) {
		fmt.Fprintf(w, "benchmark: %s: %d results, expected %d\n", what, len(got), len(want))
		return len(got)
	}
	for i := range got {
		if got[i] != want[i] {
			fmt.Fprintf(w, "benchmark: %s: point %d %s MISMATCH: got cycles=%d roi=%d counters=%s, want %s cycles=%d roi=%d counters=%s\n",
				what, i, got[i].Label, got[i].Cycles, got[i].ROI, got[i].Counters,
				want[i].Label, want[i].Cycles, want[i].ROI, want[i].Counters)
			failed++
		}
	}
	return failed
}

// simRefs is the exact number of simulated references behind a set of
// results: cpu.loads + cpu.stores.
func simRefs(results []harness.PointResult) uint64 {
	var n uint64
	for _, r := range results {
		if r.Res.Counters != nil {
			n += r.Res.Counters.Get("cpu.loads") + r.Res.Counters.Get("cpu.stores")
		}
	}
	return n
}

// sweepRow is one (benchmark, data set, cache, remote-edge %) position
// of a sweep with the measured-region cycles of each system that ran it.
type sweepRow struct {
	app     string
	set     harness.DataSet
	cacheKB int
	pct     int
	em3d    *em3d.Config
	roi     map[harness.System]sim.Time
}

// sweepRows groups results by sweep position, in first-appearance order.
func sweepRows(pts []harness.Point, results []harness.PointResult) []*sweepRow {
	var rows []*sweepRow
	at := make(map[string]*sweepRow)
	for i, pt := range pts {
		app, pct := pt.Bench, -1
		if pt.EM3D != nil {
			app, pct = "em3d", pt.EM3D.PctRemote
		}
		key := fmt.Sprintf("%s|%s|%d|%d", app, pt.Set, pt.Cfg.CacheSize, pct)
		r := at[key]
		if r == nil {
			r = &sweepRow{app: app, set: pt.Set, cacheKB: pt.Cfg.CacheSize >> 10, pct: pct, em3d: pt.EM3D,
				roi: make(map[harness.System]sim.Time)}
			at[key] = r
			rows = append(rows, r)
		}
		r.roi[pt.System] = results[i].Res.ROICycles
	}
	return rows
}

// renderSweep renders a pass's results the way the sweep binaries do: a
// Figure 3 table of every position both DirNNB and Typhoon/Stache ran,
// and a Figure 4 series of every position the update protocol ran too.
func renderSweep(w io.Writer, pts []harness.Point, results []harness.PointResult) error {
	var cells []harness.Fig3Cell
	var series []harness.Fig4Point
	for _, r := range sweepRows(pts, results) {
		dir, okD := r.roi[harness.SysDirNNB]
		st, okS := r.roi[harness.SysStache]
		if !okD || !okS || dir == 0 {
			continue
		}
		cells = append(cells, harness.Fig3Cell{App: r.app, Set: r.set, CacheKB: r.cacheKB,
			Typhoon: st, DirNNB: dir, Relative: float64(st) / float64(dir)})
		if upd, ok := r.roi[harness.SysUpdate]; ok {
			// Per-processor edge updates, by App.Setup's partition formula.
			nodes := harness.MachineConfig(harness.ScaleReduced, 0).Nodes
			edges := float64(2 * apps.CeilDiv(r.em3d.TotalNodes/2, nodes) * r.em3d.Degree * r.em3d.Iters)
			series = append(series, harness.Fig4Point{PctRemote: r.pct,
				DirNNB: float64(dir) / edges, Stache: float64(st) / edges, Update: float64(upd) / edges})
		}
	}
	if err := harness.RenderFigure3(w, cells); err != nil {
		return err
	}
	if len(series) > 0 {
		return harness.RenderFigure4(w, series)
	}
	return nil
}

// typhoonOverDirNNB is the geometric mean, over the sweep positions both
// systems ran, of Typhoon/Stache measured-region cycles over DirNNB's —
// Figure 3's bar height. It is simulated and exact: a simulator-only
// change must not move it.
func typhoonOverDirNNB(pts []harness.Point, results []harness.PointResult) float64 {
	var ratios []float64
	for _, r := range sweepRows(pts, results) {
		dir, st := r.roi[harness.SysDirNNB], r.roi[harness.SysStache]
		if dir > 0 && st > 0 {
			ratios = append(ratios, float64(st)/float64(dir))
		}
	}
	return geomean(ratios)
}

// passOutcome is one pass: how long its timed units took together, what
// the Go heap allocated meanwhile, and what came back. A pass that fails
// returns err and no results.
type passOutcome struct {
	dur     time.Duration
	alloc   uint64
	units   []timedUnit
	results []harness.PointResult
	cache   resultcache.Stats // kindCacheWarm: the pass's fresh handle
	fleet   fleet.Stats       // kindFleetWarm: the pass's coordinator
	err     error
}

// timedUnit is a stretch of a pass timed in one piece — a point of a
// simulating pass, the whole of a cache-served one — with the calibration
// slice that preceded it (calibrate.go), -1 without a calibrator.
type timedUnit struct {
	wall  float64 // seconds
	slice int
}

// unitTimer brackets one timed unit. Calibration slices run between
// units, outside every bracket, so neither their time nor their
// allocations count.
type unitTimer struct {
	start time.Time
	alloc uint64
	slice int
}

func startUnit(cal *calibrator, every time.Duration) unitTimer {
	t := unitTimer{slice: cal.mark(every), alloc: heapAllocated()}
	t.start = time.Now()
	return t
}

func (t unitTimer) stop(out *passOutcome) {
	d := time.Since(t.start)
	out.dur += d
	out.alloc += heapAllocated() - t.alloc
	out.units = append(out.units, timedUnit{wall: d.Seconds(), slice: t.slice})
}

// heapAllocated is the cumulative bytes the Go heap has handed out.
// ReadMemStats flushes every processor's allocation cache first, so the
// difference across a pass is exact; it stays outside the timed part.
func heapAllocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// submitLocal runs points on the in-process pool, the way every sweep
// binary without -fleet does.
func submitLocal(pts []harness.Point, workers int, cp harness.CacheParams) ([]harness.PointResult, error) {
	return harness.LocalExecutor{Workers: workers, Cache: cp}.Submit(context.Background(),
		harness.Batch{Points: pts, PointTimeout: pointTimeout})
}

// runPass runs one closed-loop pass of pts: the caller submits the next
// pass only after this one returns. Every pass runs on a one-worker
// pool: the workloads time the simulator, not the pool. With a tracer the pass
// walks each point through the same public steps by hand and records a
// span at each layer boundary. With a calibrator (the timed runs) a
// calibration slice runs before every point of a simulating pass and
// every calEvery between cache-served ones.
func (w *workload) runPass(e *env, pts []harness.Point, tr *tracer, cal *calibrator) passOutcome {
	switch w.kind {
	case kindCacheWarm:
		return cacheWarmPass(e, pts, tr, cal)
	case kindFleetWarm:
		return fleetWarmPass(e, pts, tr, cal)
	}
	if tr != nil {
		return tracedSimulatePass(e, pts, tr)
	}
	var out passOutcome
	for _, pt := range pts {
		t := startUnit(cal, 0)
		one, err := submitLocal([]harness.Point{pt}, 1, harness.CacheParams{})
		t.stop(&out)
		if err != nil {
			return passOutcome{err: err}
		}
		out.results = append(out.results, one...)
	}
	return out
}

// tracedSimulatePass is the simulating pass with spans: per point the
// key derivation, then machine build, app set-up, the run and the
// verification that harness.Run performs, as separate public calls.
func tracedSimulatePass(e *env, pts []harness.Point, tr *tracer) passOutcome {
	var out passOutcome
	t := startUnit(nil, 0)
	pass := tr.begin("pass")
	results := make([]harness.PointResult, len(pts))
	for i, pt := range pts {
		p := tr.begin("point")
		k := tr.begin("harness.point_key")
		_, err := harness.PointKey(e.code, pt)
		tr.end(k)
		var rr harness.RunResult
		if err == nil {
			rr, err = tracedSimulate(tr, pt)
		}
		if err != nil {
			out.err = fmt.Errorf("%s: %w", pt.Label(), err)
			return out // the open spans are abandoned with the failed pass
		}
		tr.end(p)
		results[i] = harness.PointResult{RunResult: rr}
	}
	tr.end(pass)
	t.stop(&out)
	out.results = results
	return out
}

// tracedSimulate is Point.Simulate for the plain systems and the update
// protocol, one span per step. The correctness gate compares its results
// with the untraced funnel's, so it cannot drift from harness.Run
// unnoticed.
func tracedSimulate(tr *tracer, pt harness.Point) (rr harness.RunResult, err error) {
	// DirNNB and the network report user-reachable failures as panics
	// (harness.Run recovers them the same way); the open spans are
	// abandoned with the pass.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("simulation panicked: %v", r)
		}
	}()
	s := tr.begin("machine.build")
	m := machine.New(pt.Cfg)
	var st *stache.Protocol
	var app apps.App
	switch pt.System {
	case harness.SysDirNNB:
		dirnnb.New(m)
	case harness.SysStache:
		st = stache.New()
		typhoon.New(m, st)
	case harness.SysUpdate:
		upd := em3d.NewUpdateProtocol()
		typhoon.New(m, upd)
		app = em3d.NewUpdateApp(*pt.EM3D, upd)
	default:
		return rr, fmt.Errorf("no traced path for system %q", pt.System)
	}
	if app == nil {
		if pt.EM3D != nil {
			app = em3d.New(*pt.EM3D)
		} else if app, err = harness.MakeApp(pt.Bench, pt.Scale, pt.Set); err != nil {
			return rr, err
		}
	}
	tr.end(s)

	s = tr.begin("apps.setup")
	app.Setup(m)
	tr.end(s)

	s = tr.begin("machine.run")
	res, err := m.Run(app.Body)
	tr.end(s)
	if err != nil {
		return rr, err
	}

	s = tr.begin("apps.verify")
	if st != nil {
		err = st.CheckInvariants()
	}
	if err == nil {
		err = app.Verify(m)
	}
	tr.end(s)
	return harness.RunResult{System: pt.System, App: app.Name(), Res: res}, err
}

// cacheWarmPass serves every point from the warm cache directory through
// a handle opened for this pass (memory tier cold, disk tier hot) and
// renders the sweep. A point that misses would simulate — and store, so
// the directory stays warm — but fails the pass: the workload's claim is
// that the engine does no work.
func cacheWarmPass(e *env, pts []harness.Point, tr *tracer, cal *calibrator) passOutcome {
	var out passOutcome
	t := startUnit(cal, calEvery)
	pass := tr.begin("pass")
	cache, err := resultcache.New(resultcache.Options{Dir: e.cacheDir})
	if err != nil {
		out.err = err
		return out
	}
	var results []harness.PointResult
	if tr == nil {
		results, err = submitLocal(pts, 1, harness.CacheParams{Cache: cache})
	} else {
		results, err = tracedCacheGets(e, cache, pts, tr)
	}
	if err == nil {
		r := tr.begin("harness.render")
		err = renderSweep(io.Discard, pts, results)
		tr.end(r)
	}
	if err != nil {
		out.err = err
		return out
	}
	tr.end(pass)
	t.stop(&out)
	out.cache = cache.Stats()
	if out.cache.Misses > 0 || out.cache.Corrupt > 0 {
		out.err = fmt.Errorf("warm cache was not warm: %s", out.cache)
		return out
	}
	out.results = results
	return out
}

// tracedCacheGets is the cache-served funnel by hand, one span per step:
// derive the point's key, Get it, rebuild the result from the entry. It
// skips the worker pool and per-point timeout the untraced pass goes
// through, so for this workload the traced pass is the cheaper one.
func tracedCacheGets(e *env, cache *resultcache.Cache, pts []harness.Point, tr *tracer) ([]harness.PointResult, error) {
	results := make([]harness.PointResult, len(pts))
	for i, pt := range pts {
		p := tr.begin("point")
		k := tr.begin("harness.point_key")
		key, err := harness.PointKey(e.code, pt)
		tr.end(k)
		if err != nil {
			return nil, err
		}
		g := tr.begin("resultcache.get")
		entry, err := cache.Get(key)
		tr.end(g)
		if err == nil && entry == nil {
			err = fmt.Errorf("not in the warm cache")
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pt.Label(), err)
		}
		r := tr.begin("harness.result")
		results[i] = harness.PointResult{RunResult: harness.ResultFromEntry(entry), Origin: entry.Origin}
		tr.end(r)
		tr.end(p)
	}
	return results, nil
}

// fleetWarmPass runs the points through the whole fleet path: a client
// dials the coordinator's unix socket, the coordinator (which has no
// cache, and is new each pass so no point is answered from its task
// table) leases every point to one of two workers, the worker answers
// from its cache handle on the warm directory, and coordinator and
// client each verify the entry against the point's key. Bringing the
// fleet up and down is not timed; submitting and rendering is.
func fleetWarmPass(e *env, pts []harness.Point, tr *tracer, cal *calibrator) passOutcome {
	var out passOutcome
	fl, err := startFleet(e, 2)
	if err != nil {
		out.err = err
		return out
	}
	defer fl.stop()

	t := startUnit(cal, calEvery)
	pass := tr.begin("pass")
	var results []harness.PointResult
	if tr == nil {
		results, err = fl.client.Submit(context.Background(), harness.Batch{Points: pts, PointTimeout: pointTimeout})
	} else {
		results, err = tracedLeases(fl, pts, tr)
	}
	if err == nil {
		r := tr.begin("harness.render")
		err = renderSweep(io.Discard, pts, results)
		tr.end(r)
	}
	if err != nil {
		out.err = err
		return out
	}
	tr.end(pass)
	t.stop(&out)
	out.fleet = fl.coord.Stats()
	if out.fleet.Leases != uint64(len(pts)) {
		out.err = fmt.Errorf("fleet granted %d leases for %d points", out.fleet.Leases, len(pts))
		return out
	}
	out.results = results
	return out
}

// tracedLeases submits the points one at a time so that each lease round
// trip is a span of its own. The round trip is timed through the
// coordinator's in-process Submit; fleet.submit around it is the span a
// later change can grow when it traces the client's dial and handshake.
func tracedLeases(fl *testFleet, pts []harness.Point, tr *tracer) ([]harness.PointResult, error) {
	results := make([]harness.PointResult, len(pts))
	for i, pt := range pts {
		s := tr.begin("fleet.submit")
		l := tr.begin("fleet.lease_rtt")
		one, err := fl.coord.Submit(context.Background(), harness.Batch{Points: []harness.Point{pt}, PointTimeout: pointTimeout})
		tr.end(l)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		results[i] = one[0]
	}
	return results, nil
}

// testFleet is an in-process coordinator served on a unix socket with
// its workers attached and a client pointed at it.
type testFleet struct {
	coord  *fleet.Coordinator
	client *fleet.Client
	ln     io.Closer
	wg     sync.WaitGroup
}

// startFleet brings up a coordinator without a cache and n single-slot
// workers whose caches are fresh handles on the warm directory. It
// returns once every worker is connected.
func startFleet(e *env, n int) (*testFleet, error) {
	e.fleets++
	addr := filepath.Join(e.runDir, fmt.Sprintf("fleet%d.sock", e.fleets))
	ln, err := fleet.Listen(addr)
	if err != nil {
		return nil, err
	}
	fl := &testFleet{
		coord:  fleet.NewCoordinator(fleet.CoordinatorOptions{}),
		client: &fleet.Client{Addr: addr, DialTimeout: -1},
		ln:     ln,
	}
	fl.wg.Add(1)
	go func() {
		defer fl.wg.Done()
		fl.coord.Serve(ln) // returns when stop closes the listener
	}()
	for i := 0; i < n; i++ {
		cache, err := resultcache.New(resultcache.Options{Dir: e.cacheDir})
		if err != nil {
			fl.stop()
			return nil, err
		}
		conn, err := fleet.Dial(addr)
		if err != nil {
			fl.stop()
			return nil, err
		}
		fl.wg.Add(1)
		go func() {
			defer fl.wg.Done()
			// Ends when stop closes the coordinator's side of conn.
			fleet.RunWorker(context.Background(), conn, fleet.WorkerOptions{Cache: harness.CacheParams{Cache: cache}})
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for fl.coord.Stats().Workers < uint64(n) {
		if time.Now().After(deadline) {
			fl.stop()
			return nil, fmt.Errorf("fleet workers did not connect within 10s")
		}
		time.Sleep(100 * time.Microsecond)
	}
	return fl, nil
}

// stop closes the coordinator (disconnecting the workers) and the
// listener, and waits for every goroutine startFleet started.
func (fl *testFleet) stop() {
	fl.coord.Close()
	fl.ln.Close()
	fl.wg.Wait()
}

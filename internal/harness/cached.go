package harness

import (
	"fmt"
	"strings"

	"github.com/tempest-sim/tempest/internal/apps"
	"github.com/tempest-sim/tempest/internal/apps/appbt"
	"github.com/tempest-sim/tempest/internal/apps/barnes"
	"github.com/tempest-sim/tempest/internal/apps/em3d"
	"github.com/tempest-sim/tempest/internal/apps/mp3d"
	"github.com/tempest-sim/tempest/internal/apps/ocean"
	"github.com/tempest-sim/tempest/internal/machine"
	"github.com/tempest-sim/tempest/internal/resultcache"
	"github.com/tempest-sim/tempest/internal/sim"
	"github.com/tempest-sim/tempest/internal/stats"
)

// CacheParams threads the result cache through a sweep. The zero value
// disables caching entirely (every point simulates).
type CacheParams struct {
	// Cache is the cache directory's handle, nil for no caching.
	Cache *resultcache.Cache
	// Verify is the fraction of cache hits to re-simulate and compare
	// ([0, 1]); a mismatch fails the sweep loudly.
	Verify float64
}

// enabled reports whether lookups should happen at all.
func (cp CacheParams) enabled() bool { return cp.Cache != nil }

// NewCacheParams validates and builds the -cache-dir/-cache-verify
// pair every simulating binary exposes. Without a directory there is no
// cache, so there is nothing to verify either.
func NewCacheParams(dir string, verify float64) (CacheParams, error) {
	if verify < 0 || verify > 1 {
		return CacheParams{}, fmt.Errorf("-cache-verify %v: fraction must be in [0, 1]", verify)
	}
	if dir == "" {
		if verify > 0 {
			return CacheParams{}, fmt.Errorf("-cache-verify %v needs -cache-dir (there is no cache to verify)", verify)
		}
		return CacheParams{}, nil
	}
	c, err := resultcache.New(resultcache.Options{Dir: dir})
	if err != nil {
		return CacheParams{}, err
	}
	return CacheParams{Cache: c, Verify: verify}, nil
}

// machineKey contributes the machine configuration's semantic fields to
// a key: everything that changes simulated behaviour — node count, cache
// geometry, latencies, the contention knobs, DRAM budget, quantum, seed.
// The one inert field is not among them (TestShardsFieldIsInert).
func machineKey(b *resultcache.KeyBuilder, cfg machine.Config) {
	cfg = cfg.Normalized()
	b.Int("m.nodes", int64(cfg.Nodes))
	b.Int("m.cache_bytes", int64(cfg.CacheSize))
	b.Int("m.ways", int64(cfg.CacheWays))
	b.Int("m.block", int64(cfg.BlockSize))
	b.Int("m.tlb", int64(cfg.TLBEntries))
	b.Uint("m.local_miss", uint64(cfg.LocalMissCycles))
	b.Uint("m.tlb_miss", uint64(cfg.TLBMissCycles))
	b.Uint("m.net_latency", uint64(cfg.NetLatency))
	b.Uint("m.barrier_latency", uint64(cfg.BarrierLatency))
	b.Int("m.link_bw", int64(cfg.LinkBytesPerCycle))
	b.Uint("m.occupancy", uint64(cfg.OccupancyCycles))
	b.Int("m.mem_pages", int64(cfg.MemPagesPerNode))
	b.Uint("m.quantum", uint64(cfg.Quantum))
	b.Uint("m.seed", cfg.Seed)
}

// em3dKey contributes an em3d workload's parameters.
func em3dKey(c em3d.Config) []resultcache.Field {
	return []resultcache.Field{
		resultcache.FInt("app.total_nodes", int64(c.TotalNodes)),
		resultcache.FInt("app.degree", int64(c.Degree)),
		resultcache.FInt("app.pct_remote", int64(c.PctRemote)),
		resultcache.FInt("app.remote_reuse", int64(c.RemoteReuse)),
		resultcache.FInt("app.iters", int64(c.Iters)),
		resultcache.FUint("app.seed", c.Seed),
	}
}

// appKeyFields extracts a benchmark instance's workload parameters for
// the key. Every app type must be listed: silently keying an unknown
// app on its name alone would alias different workloads, so this
// errors instead.
func appKeyFields(app apps.App) ([]resultcache.Field, error) {
	switch a := app.(type) {
	case *appbt.App:
		c := a.Config()
		return []resultcache.Field{
			resultcache.FInt("app.n", int64(c.N)),
			resultcache.FInt("app.iters", int64(c.Iters)),
		}, nil
	case *barnes.App:
		c := a.Config()
		return []resultcache.Field{
			resultcache.FInt("app.bodies", int64(c.Bodies)),
			resultcache.FInt("app.iters", int64(c.Iters)),
			resultcache.FFloat("app.theta", c.Theta),
			resultcache.FUint("app.seed", c.Seed),
		}, nil
	case *mp3d.App:
		c := a.Config()
		return []resultcache.Field{
			resultcache.FInt("app.mols", int64(c.Mols)),
			resultcache.FInt("app.cells", int64(c.Cells)),
			resultcache.FInt("app.steps", int64(c.Steps)),
			resultcache.FUint("app.seed", c.Seed),
		}, nil
	case *ocean.App:
		c := a.Config()
		return []resultcache.Field{
			resultcache.FInt("app.n", int64(c.N)),
			resultcache.FInt("app.iters", int64(c.Iters)),
			resultcache.FBool("app.owner_placed", c.OwnerPlaced),
		}, nil
	case *em3d.App:
		return em3dKey(a.Config()), nil
	}
	return nil, fmt.Errorf("harness: no cache key mapping for app %q (%T)", app.Name(), app)
}

// runKey digests one run's full input.
func runKey(code string, cfg machine.Config, system System, appName string, appFields, extra []resultcache.Field) resultcache.Key {
	b := resultcache.NewKey()
	b.Str("code", code)
	b.Str("system", string(system))
	b.Str("app", appName)
	machineKey(b, cfg)
	b.Add(appFields)
	b.Add(extra)
	return b.Sum()
}

// entryFromResult converts a run into its cached form. Counters under
// the engine. prefix are stripped: they describe how this host ran the
// simulation (dispatch hosting), not what was simulated.
func entryFromResult(key resultcache.Key, code string, system System, appName string, res machine.Result) *resultcache.Entry {
	e := &resultcache.Entry{
		Key:      key,
		Code:     code,
		System:   string(system),
		App:      appName,
		Cycles:   uint64(res.Cycles),
		ROI:      uint64(res.ROICycles),
		Counters: make(map[string]uint64),
		Net:      res.Net,
	}
	for _, name := range res.Counters.Names() {
		if strings.HasPrefix(name, "engine.") {
			continue
		}
		e.Counters[name] = res.Counters.Get(name)
	}
	return e
}

// resultFromEntry reconstructs a RunResult from a cached entry. The
// engine.* counters a fresh run would carry are absent — by design;
// they never describe simulated behaviour.
func resultFromEntry(e *resultcache.Entry) RunResult {
	ctr := stats.NewCounters()
	for name, v := range e.Counters {
		ctr.Add(name, v)
	}
	res := machine.Result{
		Cycles:    sim.Time(e.Cycles),
		ROICycles: sim.Time(e.ROI),
		Counters:  ctr,
		Net:       e.Net,
	}
	return RunResult{System: System(e.System), App: e.App, Res: res}
}

// ResultFromEntry reconstructs a run result from a cache entry — the
// fleet backends rebuild sweep results from entries shipped over the
// wire, after verifying them against the point's canonical key.
func ResultFromEntry(e *resultcache.Entry) RunResult { return resultFromEntry(e) }

// cachedRun is the memoization funnel every cached sweep point goes
// through: look the key up, serve hits (re-simulating the configured
// verification fraction and failing loudly on divergence), simulate
// and store misses. Damaged entries fall back to simulation — the cache
// counts them; they never fail a sweep.
func cachedRun(cp CacheParams, cfg machine.Config, system System, appName string,
	appFields, extra []resultcache.Field, simulate func() (RunResult, error)) (RunResult, *resultcache.Entry, error) {
	if !cp.enabled() {
		rr, err := simulate()
		return rr, nil, err
	}
	// Entries outlive the process, so their keys must pin the code.
	code, err := resultcache.CodeDigest()
	if err != nil {
		return RunResult{}, nil, fmt.Errorf("harness: the result cache needs a code digest: %w", err)
	}
	key := runKey(code, cfg, system, appName, appFields, extra)
	// A Get error is a structured *resultcache.Error for a damaged entry
	// (the corrupt counter has already ticked) or a read failure; either
	// way the fall-back is the same: simulate.
	cached, _ := cp.Cache.Get(key)
	if cached != nil {
		if cp.Cache.ShouldVerify(key, cp.Verify) {
			rr, err := simulate()
			if err != nil {
				return RunResult{}, nil, fmt.Errorf("harness: cache verify re-simulation: %w", err)
			}
			fresh := entryFromResult(key, code, system, appName, rr.Res)
			if err := resultcache.CheckMatch(cached, fresh); err != nil {
				return RunResult{}, nil, fmt.Errorf("harness: %s on %s: cached result %s does not match re-simulation: %w",
					appName, system, key, err)
			}
			cp.Cache.NoteVerified()
		}
		return resultFromEntry(cached), cached, nil
	}
	rr, err := simulate()
	if err != nil {
		return RunResult{}, nil, err
	}
	e := entryFromResult(key, code, system, appName, rr.Res)
	cp.Cache.Put(e)
	return rr, e, nil
}

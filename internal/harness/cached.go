package harness

import (
	"fmt"
	"strings"

	"github.com/tempest-sim/tempest/internal/machine"
	"github.com/tempest-sim/tempest/internal/resultcache"
	"github.com/tempest-sim/tempest/internal/sim"
	"github.com/tempest-sim/tempest/internal/stats"
)

// CacheParams threads a result cache through an executor. The zero
// value disables caching entirely (every point simulates). No binary
// opens a cache: the benchmark's cache_warm and fleet_warm workloads
// and the fleet's workers are its only users.
type CacheParams struct {
	// Cache is the cache directory's handle, nil for no caching.
	Cache *resultcache.Cache
}

// enabled reports whether lookups should happen at all.
func (cp CacheParams) enabled() bool { return cp.Cache != nil }

// entryFromResult converts a run into its cached form. Counters under
// the engine. prefix are stripped: they describe how this host ran the
// simulation (dispatch hosting), not what was simulated.
func entryFromResult(key resultcache.Key, code string, pt Point, res machine.Result) *resultcache.Entry {
	e := &resultcache.Entry{
		Key:      key,
		Code:     code,
		System:   string(pt.System),
		App:      pt.appName(),
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

// ResultFromEntry reconstructs a run result from a cache entry: a hit,
// or a fleet result shipped over the wire once verified against the
// point's canonical key. The engine.* counters a fresh run would carry
// are absent — by design; they never describe simulated behaviour.
func ResultFromEntry(e *resultcache.Entry) RunResult {
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

// cachedRun is the memoization funnel every cached point goes through:
// look the point's key up, serve hits, simulate and store misses.
// Damaged entries fall back to simulation — the cache counts them; they
// never fail a sweep. cp must be enabled (RunPoint and RunPointEntry
// simulate cacheless points themselves).
func cachedRun(cp CacheParams, pt Point) (RunResult, *resultcache.Entry, error) {
	// Entries outlive the process, so their keys must pin the code.
	code, err := resultcache.CodeDigest()
	if err != nil {
		return RunResult{}, nil, fmt.Errorf("harness: the result cache needs a code digest: %w", err)
	}
	key, err := PointKey(code, pt)
	if err != nil {
		return RunResult{}, nil, err
	}
	// A Get error is a structured *resultcache.Error for a damaged entry
	// (the corrupt counter has already ticked) or a read failure; either
	// way the fall-back is the same: simulate.
	if cached, _ := cp.Cache.Get(key); cached != nil {
		return ResultFromEntry(cached), cached, nil
	}
	rr, err := pt.Simulate()
	if err != nil {
		return RunResult{}, nil, err
	}
	e := entryFromResult(key, code, pt, rr.Res)
	cp.Cache.Put(e)
	return rr, e, nil
}

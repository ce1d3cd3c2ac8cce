package harness

import (
	"fmt"
	"strings"

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
	if !(verify >= 0 && verify <= 1) { // NaN fails both comparisons
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
// through: look the point's key up, serve hits (re-simulating the
// configured verification fraction and failing loudly on divergence),
// simulate and store misses. Damaged entries fall back to simulation —
// the cache counts them; they never fail a sweep. cp must be enabled
// (RunPointEntry simulates cacheless points itself).
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
	cached, _ := cp.Cache.Get(key)
	if cached != nil {
		if cp.Cache.ShouldVerify(key, cp.Verify) {
			rr, err := pt.Simulate()
			if err != nil {
				return RunResult{}, nil, fmt.Errorf("harness: cache verify re-simulation: %w", err)
			}
			if err := resultcache.CheckMatch(cached, entryFromResult(key, code, pt, rr.Res)); err != nil {
				return RunResult{}, nil, fmt.Errorf("harness: %s: cached result %s does not match re-simulation: %w",
					pt.Label(), key, err)
			}
			cp.Cache.NoteVerified()
		}
		return resultFromEntry(cached), cached, nil
	}
	rr, err := pt.Simulate()
	if err != nil {
		return RunResult{}, nil, err
	}
	e := entryFromResult(key, code, pt, rr.Res)
	cp.Cache.Put(e)
	return rr, e, nil
}

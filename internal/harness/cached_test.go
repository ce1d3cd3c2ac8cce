package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/tempest-sim/tempest/internal/resultcache"
	"github.com/tempest-sim/tempest/internal/stats"
)

// dirCache opens a cache on a fresh directory for one test.
func dirCache(t *testing.T) CacheParams { return cacheOn(t, t.TempDir()) }

// cacheOn opens a cache on dir.
func cacheOn(t *testing.T, dir string) CacheParams {
	t.Helper()
	c, err := resultcache.New(resultcache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return CacheParams{Cache: c}
}

// stripEngine drops the engine.* counters (dispatch hosting, window
// grants) from a freshly simulated result so it can be compared against
// a cache hit, which by design carries simulated-event counters only.
func stripEngine(rr RunResult) RunResult {
	ctr := stats.NewCounters()
	for _, name := range rr.Res.Counters.Names() {
		if !strings.HasPrefix(name, "engine.") {
			ctr.Add(name, rr.Res.Counters.Get(name))
		}
	}
	rr.Res.Counters = ctr
	return rr
}

// oceanPoint is the one point these tests memoize: reduced small-set
// ocean on Stache at 4 KB caches.
func oceanPoint() Point {
	cfg := MachineConfig(ScaleReduced, 4<<10)
	return Point{Cfg: cfg, System: SysStache, Bench: "ocean", Scale: ScaleReduced, Set: SetSmall}
}

func TestRunPointHitSkipsSimulation(t *testing.T) {
	cp := dirCache(t)
	run := func() RunResult {
		pr, err := RunPoint(cp, oceanPoint())
		if err != nil {
			t.Fatal(err)
		}
		return pr.RunResult
	}
	fresh := run()
	if s := cp.Cache.Stats(); s.Misses != 1 || s.Stores != 1 || s.Hits != 0 {
		t.Fatalf("cold stats = %+v, want 1 miss, 1 store", s)
	}
	hit := run()
	if s := cp.Cache.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("warm stats = %+v, want 1 hit over 1 miss", s)
	}
	if !reflect.DeepEqual(stripEngine(fresh), hit) {
		t.Errorf("cache hit diverges from the simulation it memoizes:\nfresh %+v\nhit   %+v", stripEngine(fresh), hit)
	}
}

// findEntryFile locates the single on-disk entry of a one-run cache.
func findEntryFile(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*", "*.entry"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("entry files in %s: %v (err %v), want exactly 1", dir, matches, err)
	}
	return matches[0]
}

// TestCacheDamagedEntrySimulates is the harness-level fallback: a
// damaged on-disk entry must not fail the run — it re-simulates, counts
// cache.corrupt, and overwrites the damage.
func TestCacheDamagedEntrySimulates(t *testing.T) {
	dir := t.TempDir()
	want, err := RunPoint(cacheOn(t, dir), oceanPoint())
	if err != nil {
		t.Fatal(err)
	}
	path := findEntryFile(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	cp2 := cacheOn(t, dir)
	got, err := RunPoint(cp2, oceanPoint())
	if err != nil {
		t.Fatalf("damaged entry failed the run: %v", err)
	}
	if s := cp2.Cache.Stats(); s.Corrupt != 1 || s.Stores != 1 || s.Hits != 0 {
		t.Fatalf("stats = %+v, want 1 corrupt fallback re-stored", s)
	}
	if !reflect.DeepEqual(stripEngine(want.RunResult), stripEngine(got.RunResult)) {
		t.Error("fallback simulation diverges from the original run")
	}
	// The overwritten entry is whole again.
	if fixed, err := os.ReadFile(path); err != nil || !bytes.Equal(fixed, data) {
		t.Errorf("damaged entry not repaired: err %v, equal %v", err, bytes.Equal(fixed, data))
	}
}

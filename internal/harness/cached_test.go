package harness

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/tempest-sim/tempest/internal/resultcache"
	"github.com/tempest-sim/tempest/internal/stats"
)

// dirCache opens a cache on a fresh directory for one test.
func dirCache(t *testing.T) CacheParams {
	t.Helper()
	cp, err := NewCacheParams(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return cp
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

func TestCacheVerifyPassAndMismatch(t *testing.T) {
	dir := t.TempDir()
	warm := func(verify float64) (CacheParams, RunResult, error) {
		cp, err := NewCacheParams(dir, verify)
		if err != nil {
			t.Fatal(err)
		}
		pr, rerr := RunPoint(cp, oceanPoint())
		return cp, pr.RunResult, rerr
	}
	if _, _, err := warm(0); err != nil {
		t.Fatal(err)
	}

	// A clean warm run at verify fraction 1.0 re-simulates the hit,
	// matches, and counts it.
	cp, _, err := warm(1.0)
	if err != nil {
		t.Fatalf("verified warm run: %v", err)
	}
	if s := cp.Cache.Stats(); s.Hits != 1 || s.Verified != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 1 verified", s)
	}

	// Doctor the stored entry — valid format, wrong result — and the
	// verify pass must fail the run loudly.
	path := findEntryFile(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	e, err := resultcache.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	e.Cycles++
	if err := os.WriteFile(path, e.Encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = warm(1.0)
	if err == nil || !strings.Contains(err.Error(), "does not match re-simulation") {
		t.Fatalf("doctored entry passed verification: %v", err)
	}
	if !strings.Contains(err.Error(), "cycles diverge") {
		t.Errorf("mismatch error %q does not name the divergence", err)
	}
}

// TestCacheDamagedEntrySimulates is the harness-level fallback: a
// damaged on-disk entry must not fail the run — it re-simulates, counts
// cache.corrupt, and overwrites the damage.
func TestCacheDamagedEntrySimulates(t *testing.T) {
	dir := t.TempDir()
	cp1, err := NewCacheParams(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunPoint(cp1, oceanPoint())
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

	cp2, err := NewCacheParams(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
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

func TestNewCacheParamsValidation(t *testing.T) {
	if cp, err := NewCacheParams("", 0); err != nil || cp.Cache != nil {
		t.Errorf("no flags: (%+v, %v), want no cache", cp, err)
	}
	for name, tc := range map[string]struct {
		dir    string
		verify float64
		want   string
	}{
		"verify-without-dir": {"", 0.5, "-cache-verify 0.5 needs -cache-dir"},
		"verify-negative":    {t.TempDir(), -0.1, "-cache-verify -0.1: fraction must be in [0, 1]"},
		"verify-above-one":   {t.TempDir(), 1.5, "-cache-verify 1.5: fraction must be in [0, 1]"},
		"verify-nan":         {t.TempDir(), math.NaN(), "-cache-verify NaN: fraction must be in [0, 1]"},
	} {
		if _, err := NewCacheParams(tc.dir, tc.verify); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", name, err, tc.want)
		}
	}
}

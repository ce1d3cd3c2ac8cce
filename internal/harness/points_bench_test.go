package harness

import "testing"

// benchPoints runs the reduced small-set Figure 3 points at one cache
// size through RunPoint, uncached — the point sets of the repo
// benchmark's hit_path (64 KB: the data fits, so the machine/cache
// reference path does the work) and miss_path (4 KB: network, agents
// and protocol handlers do) workloads. They exist so one workload can be
// profiled (`make profile-hit`, `make profile-miss`); claims are still
// measured by `go run ./benchmark`.
func benchPoints(b *testing.B, cacheKB int) {
	var pts []Point
	for _, pt := range Fig3Points(ScaleReduced, BenchNames, Fig3Configs(ScaleReduced), SimParams{}, true) {
		if pt.Set == SetSmall && pt.Cfg.CacheSize == cacheKB<<10 {
			pts = append(pts, pt)
		}
	}
	if len(pts) != 2*len(BenchNames) {
		b.Fatalf("%d small-set %d KB points, want one per benchmark and system", len(pts), cacheKB)
	}
	var refs uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pt := range pts {
			pr, err := RunPoint(CacheParams{}, pt)
			if err != nil {
				b.Fatal(err)
			}
			refs += pr.Res.Counters.Get("cpu.loads") + pr.Res.Counters.Get("cpu.stores")
		}
	}
	b.ReportMetric(float64(refs)/1e6/b.Elapsed().Seconds(), "Mrefs/s")
}

func BenchmarkPointsHitPath(b *testing.B)  { benchPoints(b, 64) }
func BenchmarkPointsMissPath(b *testing.B) { benchPoints(b, 4) }

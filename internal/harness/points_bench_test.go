package harness

import "testing"

// fig3BenchPoints returns the reduced Figure 3 points of the named
// benchmarks on one data set at one cache size, both systems each, on
// the machine sp describes.
func fig3BenchPoints(b *testing.B, sp SimParams, names []string, set DataSet, cacheKB int) []Point {
	var pts []Point
	for _, pt := range Fig3Points(ScaleReduced, names, Fig3Configs(ScaleReduced), sp, true) {
		if pt.Set == set && pt.Cfg.CacheSize == cacheKB<<10 {
			pts = append(pts, pt)
		}
	}
	if len(pts) != 2*len(names) {
		b.Fatalf("%d %s-set %d KB points, want one per benchmark and system", len(pts), set, cacheKB)
	}
	return pts
}

// benchPoints runs a point set through RunPoint, uncached. The four
// sets are those of the repo benchmark's hit_path (small set at 64 KB:
// the data fits, so the machine/cache reference path does the work),
// miss_path (4 KB: network, agents and protocol handlers do),
// miss_path_contended (the same on 4 B/cycle links and 20-cycle agents:
// port queueing and occupancy waits, the most scheduler traffic per
// reference) and fig_large (the long large-set points plus the Figure 4
// triple, where 32 nodes' cache models no longer fit the host's)
// workloads. They exist so one workload can be profiled (`make
// profile-hit`, `profile-miss`, `profile-contended`, `profile-large`);
// claims are still measured by `go run ./benchmark`.
func benchPoints(b *testing.B, pts []Point) {
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

func BenchmarkPointsHitPath(b *testing.B) {
	benchPoints(b, fig3BenchPoints(b, SimParams{}, BenchNames, SetSmall, 64))
}

func BenchmarkPointsMissPath(b *testing.B) {
	benchPoints(b, fig3BenchPoints(b, SimParams{}, BenchNames, SetSmall, 4))
}

func BenchmarkPointsMissPathContended(b *testing.B) {
	sp := SimParams{LinkBytesPerCycle: 4, OccupancyCycles: 20}
	benchPoints(b, fig3BenchPoints(b, sp, BenchNames, SetSmall, 4))
}

func BenchmarkPointsFigLarge(b *testing.B) {
	pts := fig3BenchPoints(b, SimParams{}, []string{"appbt", "ocean", "em3d"}, SetLarge, 64)
	for _, sys := range []System{SysDirNNB, SysStache, SysUpdate} {
		ecfg := EM3DConfig(ScaleReduced, SetSmall)
		ecfg.PctRemote = 20
		pts = append(pts, Point{Cfg: MachineConfig(ScaleReduced, 0), System: sys, EM3D: &ecfg, NoCache: true})
	}
	benchPoints(b, pts)
}

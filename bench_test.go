// Benchmarks regenerating the paper's evaluation: one benchmark per
// table and figure (DESIGN.md §5 maps each to its experiment), plus
// microbenchmarks of the simulator substrates. The macro benchmarks run
// the reduced-scale experiments by default so `go test -bench=.`
// finishes in minutes; cmd/fig3 and cmd/fig4 regenerate the figures at
// any scale.
package tempest_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	tempest "github.com/tempest-sim/tempest"
	"github.com/tempest-sim/tempest/internal/harness"
)

// BenchmarkTable1TagOps measures the fine-grain access-control substrate
// (Table 1): tag-checked accesses through the full CPU reference path.
func BenchmarkTable1TagOps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := tempest.DefaultConfig()
		cfg.Nodes = 1
		cfg.CacheSize = 4 << 10
		m, _ := tempest.NewTyphoonStache(cfg)
		seg := m.AllocShared("x", 64<<10, tempest.OnNode{Node: 0}, 0)
		res, err := m.Run(func(p *tempest.Proc) {
			for off := uint64(0); off < 64<<10; off += 8 {
				p.WriteU64(seg.At(off), off)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Cycles), "sim-cycles")
	}
}

// BenchmarkTable2MissLatencies measures the Table 2 latency composition:
// the steady-state coherence refetch on both systems, reporting the
// ratio the paper's +-30% claim rests on.
func BenchmarkTable2MissLatencies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := harness.MachineConfig(harness.ScaleReduced, 4<<10)
		var lat []float64
		for _, sys := range []harness.System{harness.SysDirNNB, harness.SysStache} {
			l, err := harness.MeasureRefetch(cfg, sys)
			if err != nil {
				b.Fatal(err)
			}
			lat = append(lat, float64(l))
		}
		b.ReportMetric(lat[0], "dirnnb-cycles")
		b.ReportMetric(lat[1], "stache-cycles")
		b.ReportMetric(lat[1]/lat[0], "ratio")
	}
}

// BenchmarkTable3DataSets builds every Table 3 instance at paper scale,
// including full workload construction (graph/grid/particle layout and
// shared-segment allocation on a 32-node machine; no simulation).
func BenchmarkTable3DataSets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, name := range harness.BenchNames {
			for _, set := range []harness.DataSet{harness.SetSmall, harness.SetLarge} {
				app, err := harness.MakeApp(name, harness.ScalePaper, set)
				if err != nil {
					b.Fatal(err)
				}
				m := tempest.NewDirNNB(harness.MachineConfig(harness.ScalePaper, 0))
				app.Setup(m)
			}
		}
	}
}

// benchFig3 runs one benchmark's Figure 3 row at reduced scale and
// reports each bar's relative execution time. Workers is pinned to 1 so
// the metric trajectory stays comparable across machines; see
// BenchmarkFigure3ParallelSpeedup for the parallel-runner measurement.
func benchFig3(b *testing.B, app string) {
	for i := 0; i < b.N; i++ {
		cells, err := harness.Figure3(harness.Fig3Options{
			Scale:     harness.ScaleReduced,
			Apps:      []string{app},
			SimParams: harness.SimParams{Workers: 1},
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			b.ReportMetric(c.Relative, fmt.Sprintf("rel-%s-%dK", c.Set, c.CacheKB))
		}
	}
}

// One Figure 3 benchmark per application (the figure's five groups).
func BenchmarkFigure3Appbt(b *testing.B)  { benchFig3(b, "appbt") }
func BenchmarkFigure3Barnes(b *testing.B) { benchFig3(b, "barnes") }
func BenchmarkFigure3MP3D(b *testing.B)   { benchFig3(b, "mp3d") }
func BenchmarkFigure3Ocean(b *testing.B)  { benchFig3(b, "ocean") }
func BenchmarkFigure3EM3D(b *testing.B)   { benchFig3(b, "em3d") }

// BenchmarkFigure4 runs the EM3D remote-edge sweep and reports
// cycles/edge for each system at each point.
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := harness.Figure4(harness.Fig4Options{
			Scale:     harness.ScaleReduced,
			Set:       harness.SetSmall,
			Pcts:      []int{0, 20, 50},
			SimParams: harness.SimParams{Workers: 1},
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			b.ReportMetric(p.DirNNB, fmt.Sprintf("dirnnb-%d", p.PctRemote))
			b.ReportMetric(p.Stache, fmt.Sprintf("stache-%d", p.PctRemote))
			b.ReportMetric(p.Update, fmt.Sprintf("update-%d", p.PctRemote))
		}
	}
}

// metricName makes an ablation label a legal benchmark-metric unit
// (no whitespace).
func metricName(label string) string {
	return strings.ReplaceAll(label, " ", "-")
}

// Ablation benchmarks (DESIGN.md §5): design-choice sweeps.

func BenchmarkAblationBlockSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.AblationBlockSize(harness.ScaleReduced, harness.SimParams{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(float64(r.Cycles), metricName(r.Label))
		}
	}
}

func BenchmarkAblationPlacement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.AblationPlacement(harness.ScaleReduced, harness.SimParams{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(float64(r.Cycles), metricName(r.Label))
		}
	}
}

func BenchmarkAblationStacheBudget(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.AblationStacheBudget(harness.ScaleReduced, harness.SimParams{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(float64(r.Cycles), metricName(r.Label))
		}
	}
}

func BenchmarkAblationNetLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.AblationNetLatency(harness.ScaleReduced, harness.SimParams{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(float64(r.Cycles), metricName(r.Label))
		}
	}
}

// Substrate microbenchmarks: simulator throughput (host performance,
// not simulated time).

func BenchmarkSimReferenceThroughput(b *testing.B) {
	// A machine runs once, so each benchmark invocation builds a fresh
	// one and issues b.N references inside a single simulated run.
	cfg := tempest.DefaultConfig()
	cfg.Nodes = 1
	m, _ := tempest.NewTyphoonStache(cfg)
	seg := m.AllocShared("x", 1<<20, tempest.OnNode{Node: 0}, 0)
	b.ResetTimer()
	if _, err := m.Run(func(p *tempest.Proc) {
		for i := 0; i < b.N; i++ {
			p.ReadU64(seg.At(uint64(i%(1<<17)) * 8))
		}
	}); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "refs/s")
}

func BenchmarkSimBarrierThroughput(b *testing.B) {
	cfg := tempest.DefaultConfig()
	cfg.Nodes = 8
	m := tempest.NewDirNNB(cfg)
	b.ResetTimer()
	if _, err := m.Run(func(p *tempest.Proc) {
		for i := 0; i < b.N; i++ {
			p.Barrier()
		}
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAblationEM3DProtocols reproduces the paper's §4 protocol
// comparison: plain Stache vs. check-in annotations vs. the custom
// update protocol, in network messages and cycles.
func BenchmarkAblationEM3DProtocols(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.AblationEM3DProtocols(harness.ScaleReduced, 30, harness.SimParams{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(float64(r.Cycles), metricName(r.Label)+"-cycles")
			if v, ok := r.Extra["net-messages"]; ok {
				b.ReportMetric(float64(v), metricName(r.Label)+"-msgs")
			}
		}
	}
}

// BenchmarkAblationMigratory measures the migratory-sharing protocol
// extension on MP3D's scattered read-modify-write pattern.
func BenchmarkAblationMigratory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.AblationMigratory(harness.ScaleReduced, harness.SimParams{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(float64(r.Cycles), metricName(r.Label))
		}
	}
}

// BenchmarkAblationSoftwareTempest compares the unmodified Stache
// library on Typhoon hardware versus the software Tempest (Blizzard)
// implementation — the paper's §2 portability claim, priced.
func BenchmarkAblationSoftwareTempest(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.AblationSoftwareTempest(harness.ScaleReduced, harness.SimParams{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(float64(r.Cycles), metricName(r.Label))
		}
	}
}

// BenchmarkFigure3ParallelSpeedup times the reduced Figure 3 sweep on
// the serial path (-j 1) against the parallel runner at -j 4 and reports
// the wall-clock speedup. Results are bit-identical at both settings
// (TestParallelDeterminism); the speedup metric reflects the host's
// available cores.
func BenchmarkFigure3ParallelSpeedup(b *testing.B) {
	if runtime.NumCPU() == 1 {
		b.Skip("single-CPU host: -j 4 cannot run simulations concurrently, so the speedup ratio would only measure scheduling overhead")
	}
	opts := harness.Fig3Options{Scale: harness.ScaleReduced}
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		opts.Workers = 1
		if _, err := harness.Figure3(opts); err != nil {
			b.Fatal(err)
		}
		serial := time.Since(t0)

		t0 = time.Now()
		opts.Workers = 4
		if _, err := harness.Figure3(opts); err != nil {
			b.Fatal(err)
		}
		parallel := time.Since(t0)

		b.ReportMetric(serial.Seconds(), "serial-s")
		b.ReportMetric(parallel.Seconds(), "parallel-j4-s")
		b.ReportMetric(serial.Seconds()/parallel.Seconds(), "speedup-j4")
	}
}

// Command bench runs the reduced Figure 3 and Figure 4 sweeps and
// fingerprints the rendered tables: the digest gate every behaviour-
// preserving change is checked against.
//
// It prints the wall-clock seconds of a per-app Figure 3 sweep (reduced
// scale, one worker by default) plus the reduced Figure 4 EM3D sweep,
// and a sha256 digest of the rendered tables. With -check the digest is
// compared to a committed golden file and a mismatch exits 1:
// performance work that changes it has changed simulated results, not
// just speed. The timings are for orientation only — performance claims
// are measured with `go run ./benchmark` (BENCHMARK.json).
//
// Usage:
//
//	go run ./cmd/bench                                 # print digest and timings
//	go run ./cmd/bench -check testdata/bench.digest   # digest gate
//	go run ./cmd/bench -cpuprofile cpu.out
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/tempest-sim/tempest/internal/harness"
)

func main() {
	check := flag.String("check", "", "golden digest file: compare the sweep's digest to it, exit 1 on mismatch")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile after the sweep to this file")
	// -j defaults to 1 to isolate simulator speed from host cores; the
	// contention flags change the digest.
	shared := harness.RegisterFlags(flag.CommandLine, harness.FlagDefaults{Jobs: 1, Scale: harness.ScaleReduced})
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	sp, err := shared.Resolve()
	if err != nil {
		fail(err)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}

	var total float64
	var rendered strings.Builder

	// Per-app Figure 3 sweeps: one timing per benchmark so regressions
	// localise, all rendered into the digest.
	var cells []harness.Fig3Cell
	for _, app := range harness.BenchNames {
		start := time.Now()
		cs, err := harness.Figure3(harness.Fig3Options{
			Scale:     shared.Scale,
			Apps:      []string{app},
			SimParams: sp,
		})
		if err != nil {
			fail(err)
		}
		secs := time.Since(start).Seconds()
		total += secs
		cells = append(cells, cs...)
		fmt.Fprintf(os.Stderr, "bench: figure3/%s %.2fs\n", app, secs)
	}
	if err := harness.RenderFigure3(&rendered, cells); err != nil {
		fail(err)
	}

	// Reduced Figure 4: the EM3D remote-edge sweep on the small set.
	start := time.Now()
	pts, err := harness.Figure4(harness.Fig4Options{
		Scale:     shared.Scale,
		Set:       harness.SetSmall,
		Pcts:      []int{0, 20, 50},
		SimParams: sp,
	})
	if err != nil {
		fail(err)
	}
	secs := time.Since(start).Seconds()
	total += secs
	fmt.Fprintf(os.Stderr, "bench: figure4/em3d-small %.2fs\n", secs)
	if err := harness.RenderFigure4(&rendered, pts); err != nil {
		fail(err)
	}

	digest := sha256.Sum256([]byte(rendered.String()))
	sum := hex.EncodeToString(digest[:])

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fail(err)
		}
		runtime.GC() // materialise the live-heap picture
		if err := pprof.WriteHeapProfile(f); err != nil {
			fail(err)
		}
		f.Close()
	}

	if *check == "" {
		fmt.Fprintf(os.Stderr, "bench: total %.2fs\n", total)
		fmt.Println(sum)
		return
	}
	raw, err := os.ReadFile(*check)
	if err != nil {
		fail(err)
	}
	want := strings.TrimSpace(string(raw))
	if sum != want {
		fmt.Fprintf(os.Stderr, "bench: DIGEST MISMATCH\n  golden %s (%s)\n  got    %s\nSimulated results changed. If intentional, re-pin every fence with `make repin`.\n",
			want, *check, sum)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "bench: digest ok (%s…) total %.2fs\n", sum[:12], total)
}

package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/tempest-sim/tempest/internal/harness"
)

// expectedSeed is the seed expected.json was recorded at: every app's
// committed seed. At any other seed the table does not apply and the
// gate falls back to app.Verify (inside every simulation) plus
// first-pass, shards-1 and cold-run equality.
const expectedSeed = 1

// heldOutSeed is the seed later performance claims must also hold on;
// nothing in the benchmark was sized or tuned against it.
const heldOutSeed = 7

//go:embed expected.json
var expectedJSON []byte

// expectedFile is benchmark/expected.json: per workload, per point at
// seed 1, the simulated times and counter hash every pass must
// reproduce. Digest is the cmd/bench sweep digest the tree had when the
// table was recorded (testdata/bench.digest).
type expectedFile struct {
	Seed      uint64           `json:"seed"`
	Digest    string           `json:"digest"`
	Workloads map[string][]sig `json:"workloads"`
}

func loadExpected() (*expectedFile, error) {
	var f expectedFile
	if err := json.Unmarshal(expectedJSON, &f); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	if f.Seed != expectedSeed {
		return nil, fmt.Errorf("expected.json records seed %d, want %d", f.Seed, expectedSeed)
	}
	return &f, nil
}

// benchSweepDigest runs the 49-point sweep cmd/bench runs (reduced
// Figure 3 per app, reduced Figure 4 on the small set at 0/20/50%; ideal
// machine, one shard) and returns the sha256 of the rendered tables —
// the value testdata/bench.digest pins.
func benchSweepDigest(logw io.Writer) (string, error) {
	var rendered strings.Builder
	var cells []harness.Fig3Cell
	for _, app := range harness.BenchNames {
		cs, err := harness.Figure3(harness.Fig3Options{Scale: harness.ScaleReduced, Apps: []string{app}})
		if err != nil {
			return "", err
		}
		cells = append(cells, cs...)
		fmt.Fprintf(logw, "benchmark: sweep figure3/%s done\n", app)
	}
	if err := harness.RenderFigure3(&rendered, cells); err != nil {
		return "", err
	}
	series, err := harness.Figure4(harness.Fig4Options{Scale: harness.ScaleReduced, Set: harness.SetSmall, Pcts: []int{0, 20, 50}})
	if err != nil {
		return "", err
	}
	if err := harness.RenderFigure4(&rendered, series); err != nil {
		return "", err
	}
	sum := sha256.Sum256([]byte(rendered.String()))
	return hex.EncodeToString(sum[:]), nil
}

// updateExpected rewrites benchmark/expected.json from this tree (the
// working directory is the repository root). It refuses unless the full
// sweep reproduces testdata/bench.digest: the table may only ever record
// results the repo's own gate accepts.
func updateExpected(logw io.Writer) error {
	raw, err := os.ReadFile("testdata/bench.digest")
	if err != nil {
		return err
	}
	want := strings.TrimSpace(string(raw))
	got, err := benchSweepDigest(logw)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("sweep digest %s does not match testdata/bench.digest %s: refusing to record expected results from a tree the digest gate rejects", got, want)
	}
	out := expectedFile{Seed: expectedSeed, Digest: got, Workloads: make(map[string][]sig)}
	for _, w := range workloads {
		pts := referencePoints(&w, expectedSeed)
		results, err := submitLocal(pts, 0, harness.CacheParams{}) // all cores
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		out.Workloads[w.name] = sigsOf(pts, results)
		fmt.Fprintf(logw, "benchmark: recorded %d points of %s\n", len(pts), w.name)
	}
	data, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile("benchmark/expected.json", append(data, '\n'), 0o644)
}

// referencePoints are a workload's points as their reference results
// are produced: cold (every point simulates) and on one shard. Sharded
// and cache-served passes must reproduce these counter for counter.
func referencePoints(w *workload, seed uint64) []harness.Point {
	pts := w.points(seed)
	out := make([]harness.Point, len(pts))
	for i, pt := range pts {
		pt.Cfg.Shards = 1
		pt.NoCache = true
		pt.Group, pt.WitnessKB = "", nil
		out[i] = pt
	}
	return out
}

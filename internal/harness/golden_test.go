package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The golden tests pin the simulator's rendered output bit-for-bit.
// Any change to the timing model, protocol behaviour, or event ordering
// shows up here as a mismatch — which is the point: performance work
// must not move a single cycle. After an intentional model change,
// re-pin every fence with
//
//	make repin
//
// whose first step is
// `go test ./internal/harness -run 'Golden|ContendedDigest' -update -v`.
// That selects the five tests below, in source order: the two golden
// tests rewrite their files and log each bar that moved, then
// TestBenchDigestIsGoldensHash and TestExperimentsFigure3IsGolden read
// the new goldens from disk and rewrite testdata/bench.digest and
// EXPERIMENTS.md's reduced Figure 3 table, and TestContendedDigest
// rewrites testdata/bench_contended.digest.

var updateGolden = flag.Bool("update", false, "rewrite golden files, both bench digests and EXPERIMENTS.md's table from current output")

// repinHint closes every mismatch message of a pin these tests check.
const repinHint = "If the change is intended, re-pin every fence with `make repin`."

// checkGolden compares rendered output against testdata/<name>.golden.
// The golden file stores the sha256 on its first line and the full
// rendered text below it. A mismatch names each bar that moved (see
// movedBars), not the whole tables; under -update the file is rewritten
// and the moved bars are logged.
func checkGolden(t *testing.T, name string, rendered []byte) {
	t.Helper()
	sum := sha256.Sum256(rendered)
	content := fmt.Appendf(nil, "sha256:%s\n%s", hex.EncodeToString(sum[:]), rendered)
	path := filepath.Join("testdata", name+".golden")
	raw, err := os.ReadFile(path)
	if err != nil && !*updateGolden { // -update creates a missing file
		t.Fatal(err)
	}
	if bytes.Equal(raw, content) {
		return
	}
	report := describeMoves(raw, content)
	if !*updateGolden {
		t.Errorf("%s: simulated results changed. %s\n%s", path, report, repinHint)
		return
	}
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("updated %s. %s", path, report)
}

// describeMoves says how a golden file changed: the bars that moved by
// more than 0.01, or, when none did, the first line that differs.
func describeMoves(was, now []byte) string {
	_, wasBody, _ := bytes.Cut(was, []byte("\n"))
	_, nowBody, _ := bytes.Cut(now, []byte("\n"))
	if moved := movedBars(wasBody, nowBody); len(moved) > 0 {
		return "Bars that moved by more than 0.01:\n  " + strings.Join(moved, "\n  ")
	}
	return "No bar moved by more than 0.01; " + firstDiff(was, now)
}

// firstDiff names the first line at which two texts differ.
func firstDiff(was, now []byte) string {
	wl := strings.Split(string(was), "\n")
	nl := strings.Split(string(now), "\n")
	for i := range min(len(wl), len(nl)) {
		if wl[i] != nl[i] {
			return fmt.Sprintf("line %d was %q, is %q", i+1, wl[i], nl[i])
		}
	}
	return fmt.Sprintf("%d lines were, %d are", len(wl), len(nl))
}

// A bar is one value of a rendered figure, named as CHANGES.md names
// it: "mp3d small/16K" for a Figure 3 ratio, "20% remote Typhoon/Stache"
// for one series of a Figure 4 row. The value is its printed text.
type bar struct{ name, val string }

// bars reads the bars of a rendered Figure 3 or Figure 4 table, in row
// order. The title says which figure it is; the title, header and rule
// lines yield no bar, and neither does anything else that is not a row.
func bars(body []byte) []bar {
	lines := strings.Split(string(body), "\n")
	if len(lines) < 3 {
		return nil
	}
	series := strings.Fields(lines[1]) // Figure 4: "%", "remote", then one name per series
	var out []bar
	for _, l := range lines[3:] {
		f := strings.Fields(l)
		switch {
		case strings.HasPrefix(lines[0], "Figure 3:") && len(f) == 5:
			out = append(out, bar{f[0] + " " + f[1], f[4]})
		case strings.HasPrefix(lines[0], "Figure 4:") && len(series) > 2 && len(f) == len(series)-1:
			for i, s := range series[2:] {
				out = append(out, bar{f[0] + "% remote " + s, f[i+1]})
			}
		}
	}
	return out
}

// movedBars lists each bar of the new table whose value differs from
// the old one's by more than 0.01, as "name old → new", then each bar
// only one table has, as added or removed.
func movedBars(oldBody, newBody []byte) []string {
	was := make(map[string]string)
	for _, b := range bars(oldBody) {
		was[b.name] = b.val
	}
	var out []string
	for _, b := range bars(newBody) {
		o, ok := was[b.name]
		delete(was, b.name)
		switch {
		case !ok:
			out = append(out, fmt.Sprintf("%s added (%s)", b.name, b.val))
		case moved(o, b.val):
			out = append(out, fmt.Sprintf("%s %s → %s", b.name, o, b.val))
		}
	}
	for _, b := range bars(oldBody) {
		if v, ok := was[b.name]; ok {
			out = append(out, fmt.Sprintf("%s removed (was %s)", b.name, v))
		}
	}
	return out
}

// moved reports whether two printed values differ by more than 0.01. The
// 1e-9 absorbs the float error of a printed step of exactly 0.010, which
// is not a move.
func moved(was, now string) bool {
	x, errX := strconv.ParseFloat(was, 64)
	y, errY := strconv.ParseFloat(now, 64)
	if errX != nil || errY != nil {
		return was != now
	}
	return math.Abs(x-y) > 0.01+1e-9
}

// skipUnderRace skips a test whose sweep takes 5 s or more under the
// race detector (a few seconds without it). `make ci` runs it once, in
// its non-race fences leg; the race leg keeps the shorter sweeps, such
// as TestGoldenFigure4 and TestParallelDeterminism/figure3, that race
// the parallel runner.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceDetector {
		t.Skip("a multi-second sweep under -race; make ci runs it in its non-race fences leg")
	}
}

func TestGoldenFigure3(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweep; skipped with -short")
	}
	skipUnderRace(t)
	cells, err := Figure3(Fig3Options{Scale: ScaleReduced})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderFigure3(&buf, cells); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "figure3", buf.Bytes())
}

func TestGoldenFigure4(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweep; skipped with -short")
	}
	pts, err := Figure4(Fig4Options{
		Scale: ScaleReduced,
		Set:   SetSmall,
		Pcts:  []int{0, 20, 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderFigure4(&buf, pts); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "figure4", buf.Bytes())
}

// TestBenchDigestIsGoldensHash: the ideal-machine digest,
// testdata/bench.digest, is the sha256 of the reduced Figure 3 table
// followed by the reduced Figure 4 table — exactly the two golden
// bodies, so the goldens pin it. Under -update it writes the file from
// the goldens on disk, which TestGoldenFigure3/4 have just rewritten.
func TestBenchDigestIsGoldensHash(t *testing.T) {
	h := sha256.New()
	for _, name := range []string{"figure3", "figure4"} {
		h.Write(goldenBody(t, name))
	}
	checkDigest(t, "bench.digest", "sha256 of the golden bodies", h)
}

// checkDigest compares the hex sha256 in h, the hash of what, with the
// one testdata/<file> at the repository root pins; under -update it
// writes the file instead.
func checkDigest(t *testing.T, file, what string, h hash.Hash) {
	t.Helper()
	got := hex.EncodeToString(h.Sum(nil))
	path := filepath.Join("..", "..", "testdata", file)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := string(bytes.TrimSpace(raw)); got != want {
		t.Errorf("%s is %s, testdata/%s pins %s. %s", what, got, file, want, repinHint)
	}
}

// goldenBody is testdata/<name>.golden below its hash line.
func goldenBody(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	_, body, ok := bytes.Cut(raw, []byte("\n"))
	if !ok {
		t.Fatalf("%s.golden: no body below the hash line", name)
	}
	return body
}

// TestExperimentsFigure3IsGolden: the reduced Figure 3 table quoted in
// EXPERIMENTS.md is the golden's body, so the document cannot go stale
// behind the code. Lines compare with trailing blanks trimmed; the
// renderer pads its last column and editors strip the padding. Under
// -update it writes the trimmed body into the document's fenced block.
func TestExperimentsFigure3IsGolden(t *testing.T) {
	golden := trimLines(goldenBody(t, "figure3"))
	path := filepath.Join("..", "..", "EXPERIMENTS.md")
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const heading = "**Measured, reduced scale (8 nodes):**\n\n```\n"
	head, rest, ok := bytes.Cut(doc, []byte(heading))
	if !ok {
		t.Fatalf("EXPERIMENTS.md: no fenced block under %q", heading[:len(heading)-6])
	}
	table, tail, ok := bytes.Cut(rest, []byte("```\n"))
	if !ok {
		t.Fatal("EXPERIMENTS.md: the reduced Figure 3 block is not closed")
	}
	if *updateGolden {
		out := slices.Concat(head, []byte(heading), golden, []byte("\n```\n"), tail)
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if got := trimLines(table); !bytes.Equal(got, golden) {
		t.Errorf("EXPERIMENTS.md's reduced Figure 3 table differs from testdata/figure3.golden: %s. %s",
			firstDiff(got, golden), repinHint)
	}
}

// trimLines drops trailing blanks from every line and trailing newlines
// from the text.
func trimLines(b []byte) []byte {
	lines := bytes.Split(bytes.TrimRight(b, "\n"), []byte("\n"))
	for i, l := range lines {
		lines[i] = bytes.TrimRight(l, " ")
	}
	return bytes.Join(lines, []byte("\n"))
}

// TestContendedDigest pins the reduced Figure 3 and Figure 4 sweeps on
// the contended machine (4 B/cycle links, 20-cycle agent occupancy): the
// sha256 of the two tables, rendered in that order, must equal
// testdata/bench_contended.digest. The goldens pin the same sweeps on
// the paper's contention-free machine; this pin is the only one that
// runs port queueing and agent occupancy over whole figures. Under
// -update it rewrites the file from the current output.
func TestContendedDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweep; skipped with -short")
	}
	skipUnderRace(t)
	sp := SimParams{LinkBytesPerCycle: 4, OccupancyCycles: 20}
	cells, err := Figure3(Fig3Options{Scale: ScaleReduced, SimParams: sp})
	if err != nil {
		t.Fatal(err)
	}
	pts, err := Figure4(Fig4Options{Scale: ScaleReduced, Set: SetSmall, Pcts: []int{0, 20, 50}, SimParams: sp})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if err := RenderFigure3(h, cells); err != nil {
		t.Fatal(err)
	}
	if err := RenderFigure4(h, pts); err != nil {
		t.Fatal(err)
	}
	checkDigest(t, "bench_contended.digest", "sha256 of the contended sweep's tables", h)
}

// TestMovedBars: the moved-bar report a golden mismatch prints names a
// bar only when it moved by more than 0.01, names rows one table lacks,
// and reports Figure 4 per series.
func TestMovedBars(t *testing.T) {
	fig3 := func(rel ...float64) []byte {
		var cells []Fig3Cell
		for i, r := range rel {
			cells = append(cells, Fig3Cell{App: "mp3d", Set: SetSmall, CacheKB: 4 << i, DirNNB: 1000, Typhoon: 1000, Relative: r})
		}
		var buf bytes.Buffer
		if err := RenderFigure3(&buf, cells); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	fig4 := func(rows ...[3]float64) []byte {
		var pts []Fig4Point
		for i, r := range rows {
			pts = append(pts, Fig4Point{PctRemote: 20 * i, DirNNB: r[0], Stache: r[1], Update: r[2]})
		}
		var buf bytes.Buffer
		if err := RenderFigure4(&buf, pts); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, tc := range []struct {
		name     string
		old, new []byte
		want     []string
	}{
		{"fig3 unchanged", fig3(1.5, 1.6), fig3(1.5, 1.6), nil},
		{"fig3 0.010 is not a move", fig3(1.553, 1.6), fig3(1.543, 1.61), nil},
		{"fig3 0.011 is", fig3(1.553, 1.6), fig3(1.542, 1.589),
			[]string{"mp3d small/4K 1.553 → 1.542", "mp3d small/8K 1.600 → 1.589"}},
		{"fig3 row added", fig3(1.5), fig3(1.5, 1.6), []string{"mp3d small/8K added (1.600)"}},
		{"fig3 row removed", fig3(1.5, 1.6), fig3(1.5), []string{"mp3d small/8K removed (was 1.600)"}},
		{"fig4 per series", fig4([3]float64{8.405, 8.405, 8.404}, [3]float64{18.929, 21.632, 13.201}),
			fig4([3]float64{8.405, 8.415, 8.404}, [3]float64{18.929, 21.5, 13.3}),
			[]string{"20% remote Typhoon/Stache 21.632 → 21.500", "20% remote Typhoon/Update 13.201 → 13.300"}},
		{"fig4 row removed", fig4([3]float64{1, 2, 3}, [3]float64{4, 5, 6}), fig4([3]float64{1, 2, 3}),
			[]string{"20% remote DirNNB removed (was 4.000)", "20% remote Typhoon/Stache removed (was 5.000)",
				"20% remote Typhoon/Update removed (was 6.000)"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := movedBars(tc.old, tc.new); !slices.Equal(got, tc.want) {
				t.Errorf("moved bars\n%q\nwant\n%q", got, tc.want)
			}
		})
	}
}

package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// The golden tests pin the simulator's rendered output bit-for-bit.
// Any change to the timing model, protocol behaviour, or event ordering
// shows up here as a hash mismatch — which is the point: performance
// work must not move a single cycle. Regenerate after an intentional
// model change with:
//
//	go test ./internal/harness -run TestGolden -update

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

// checkGolden compares rendered output against testdata/<name>.golden.
// The golden file stores the sha256 on its first line and the full
// rendered text below it, so mismatches are human-diffable.
func checkGolden(t *testing.T, name string, rendered []byte) {
	t.Helper()
	sum := sha256.Sum256(rendered)
	got := hex.EncodeToString(sum[:])
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		content := fmt.Sprintf("sha256:%s\n%s", got, rendered)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 || !bytes.HasPrefix(raw, []byte("sha256:")) {
		t.Fatalf("%s: malformed golden file (want sha256:<hex> first line)", path)
	}
	want := string(raw[len("sha256:"):nl])
	if got != want {
		t.Errorf("%s: output hash %s, golden %s — simulated results changed.\n"+
			"If the timing-model change is intentional, regenerate with -update.\n"+
			"got output:\n%s\ngolden output:\n%s",
			name, got, want, rendered, raw[nl+1:])
	}
}

func TestGoldenFigure3(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweep; skipped with -short")
	}
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

// TestBenchDigestIsGoldensHash: cmd/bench's ideal-machine digest is the
// sha256 of the reduced Figure 3 table followed by the reduced Figure 4
// table — exactly the two golden bodies. The two pins therefore agree
// by construction, and a re-pin that updates one without the other
// fails here without simulating anything.
func TestBenchDigestIsGoldensHash(t *testing.T) {
	h := sha256.New()
	for _, name := range []string{"figure3", "figure4"} {
		raw, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		_, body, ok := bytes.Cut(raw, []byte("\n"))
		if !ok {
			t.Fatalf("%s.golden: no body below the hash line", name)
		}
		h.Write(body)
	}
	raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", "bench.digest"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := hex.EncodeToString(h.Sum(nil)), string(bytes.TrimSpace(raw)); got != want {
		t.Errorf("sha256 of the golden bodies is %s, testdata/bench.digest pins %s", got, want)
	}
}

// TestExperimentsFigure3IsGolden: the reduced Figure 3 table quoted in
// EXPERIMENTS.md is the golden's body, so the document cannot go stale
// behind the code. Lines compare with trailing blanks trimmed; the
// renderer pads its last column and editors strip the padding.
func TestExperimentsFigure3IsGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "figure3.golden"))
	if err != nil {
		t.Fatal(err)
	}
	_, golden, ok := bytes.Cut(raw, []byte("\n"))
	if !ok {
		t.Fatal("figure3.golden: no body below the hash line")
	}
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	const heading = "**Measured, reduced scale (8 nodes):**\n\n```\n"
	_, rest, ok := bytes.Cut(doc, []byte(heading))
	if !ok {
		t.Fatalf("EXPERIMENTS.md: no fenced block under %q", heading[:len(heading)-6])
	}
	table, _, ok := bytes.Cut(rest, []byte("```\n"))
	if !ok {
		t.Fatal("EXPERIMENTS.md: the reduced Figure 3 block is not closed")
	}
	trim := func(b []byte) string {
		lines := bytes.Split(bytes.TrimRight(b, "\n"), []byte("\n"))
		for i, l := range lines {
			lines[i] = bytes.TrimRight(l, " ")
		}
		return string(bytes.Join(lines, []byte("\n")))
	}
	if got, want := trim(table), trim(golden); got != want {
		t.Errorf("EXPERIMENTS.md's reduced Figure 3 table differs from testdata/figure3.golden; "+
			"paste the golden's body below the hash line.\ndoc:\n%s\ngolden:\n%s", got, want)
	}
}

package conform

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// corpusDir is the committed corpus, relative to this package.
const corpusDir = "../../testdata/traces"

func loadCorpus(t *testing.T, p Pair) *Stream {
	t.Helper()
	s, err := LoadStream(TracePath(corpusDir, p))
	if err != nil {
		t.Fatalf("load %s: %v (regenerate with `go run ./cmd/conform -record -update`)", p.Name(), err)
	}
	return s
}

// TestCorpusManifest is the integrity gate: every committed trace is
// listed in MANIFEST.sha256 with a matching digest, and nothing is
// listed that does not exist.
func TestCorpusManifest(t *testing.T) {
	if err := CheckManifest(corpusDir); err != nil {
		t.Fatal(err)
	}
}

// TestCorpusComplete pins the corpus contents to CorpusPairs: a pair
// added to the matrix without a recorded trace, or a stale trace for a
// removed pair, both fail here.
func TestCorpusComplete(t *testing.T) {
	want := make(map[string]bool)
	for _, p := range CorpusPairs() {
		want[filepath.Base(TracePath(corpusDir, p))] = true
	}
	ents, err := os.ReadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]bool)
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".trace" {
			got[e.Name()] = true
		}
	}
	for name := range want {
		if !got[name] {
			t.Errorf("corpus pair has no committed trace: %s", name)
		}
	}
	for name := range got {
		if !want[name] {
			t.Errorf("committed trace matches no corpus pair: %s", name)
		}
	}
}

// TestCorpusReplay replays every committed trace standalone and runs
// the tag-machine checker over it: the recorded message schedule must
// be exactly reproducible by the network and agent layers alone, and
// every per-block tag history must walk the MSI machine legally.
func TestCorpusReplay(t *testing.T) {
	for _, p := range CorpusPairs() {
		t.Run(p.Name(), func(t *testing.T) {
			s := loadCorpus(t, p)
			if s.Truncated {
				t.Fatal("committed stream claims truncation")
			}
			if len(s.Events) == 0 {
				t.Fatal("committed stream has no events")
			}
			if err := Replay(s); err != nil {
				t.Error(err)
			}
			if err := CheckTagMachine(s); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestCorpusRoundTrip proves the text format is lossless: decode of an
// encode is byte-identical, for every committed stream.
func TestCorpusRoundTrip(t *testing.T) {
	for _, p := range CorpusPairs() {
		t.Run(p.Name(), func(t *testing.T) {
			s := loadCorpus(t, p)
			enc := s.Encode()
			s2, err := Decode(enc)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc, s2.Encode()) {
				t.Fatal("encode/decode round trip is not byte-identical")
			}
		})
	}
}

// TestReRecordMatchesCorpus re-runs a cross-section of the corpus on
// the full machine and demands the fresh recording be byte-identical to
// the committed stream. This is the full-fidelity conformance check (it
// covers the NP dispatch timing the standalone replay deliberately
// leaves to it): traces, counters, digests and all. The remaining pairs
// are covered by `make conform` (cmd/conform -record).
func TestReRecordMatchesCorpus(t *testing.T) {
	pairs := []Pair{
		{App: "em3d", System: "dirnnb"},
		{App: "em3d", System: "typhoon-update"},
		{App: "ocean", System: "typhoon-stache"},
		{App: "em3d", System: "typhoon-stache", Contended: true},
	}
	for _, p := range pairs {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			t.Parallel()
			want := loadCorpus(t, p)
			got, err := Record(p, RecordOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := CompareStreams(want, got); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDifferentialMatrix runs every app under every protocol and
// asserts identical application-visible memory semantics.
func TestDifferentialMatrix(t *testing.T) {
	for _, app := range DiffApps() {
		app := app
		t.Run(app, func(t *testing.T) {
			t.Parallel()
			if err := RunDifferential(app, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
}

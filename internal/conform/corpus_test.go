package conform

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/tempest-sim/tempest/internal/harness"
)

// The committed corpus is a golden file. After a deliberate behaviour
// change, `make repin` re-records it, with every other fence, by running
//
//	go test ./internal/conform -run TestReRecordMatchesCorpus -update

var update = flag.Bool("update", false, "rewrite the committed corpus from fresh recordings")

// corpusDir is the committed corpus, relative to this package.
const corpusDir = "../../testdata/traces"

func tracePath(p Pair) string {
	return filepath.Join(corpusDir, p.Name()+".trace")
}

func readTrace(t *testing.T, p Pair) []byte {
	t.Helper()
	data, err := os.ReadFile(tracePath(p))
	if err != nil {
		t.Fatalf("%v (re-record with `make repin`)", err)
	}
	return data
}

// recording is one pair's memoised fresh recording.
type recording struct {
	once sync.Once
	s    *Stream
	err  error
}

// recordings holds a recording per pair, so each corpus pair is
// simulated once per test binary: the corpus re-record, the
// differential matrix and the tampered-line tests share it.
var recordings sync.Map // Pair → *recording

// recorded returns p's fresh recording on the full machine, recording
// it on first use. The stream is shared: callers must not modify it.
func recorded(p Pair) (*Stream, error) {
	v, _ := recordings.LoadOrStore(p, new(recording))
	r := v.(*recording)
	r.once.Do(func() { r.s, r.err = Record(p, harness.DiffOptions{}) })
	return r.s, r.err
}

// recordedBytes is recorded's encoding; a failed recording fails t.
func recordedBytes(t *testing.T, p Pair) []byte {
	t.Helper()
	s, err := recorded(p)
	if err != nil {
		t.Fatal(err)
	}
	return s.Encode()
}

// compareStreams demands byte-identical encodings. The error names the
// first differing line — header field, event, or footer line — so a
// change that moves one message shows up as that message, not as a
// blob diff.
func compareStreams(want, got []byte) error {
	if bytes.Equal(want, got) {
		return nil
	}
	wl := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	gl := strings.Split(strings.TrimSuffix(string(got), "\n"), "\n")
	for i := range min(len(wl), len(gl)) {
		if wl[i] != gl[i] {
			return fmt.Errorf("streams diverge at line %d:\n  want: %s\n  got:  %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Errorf("streams diverge in length: want %d lines (%d bytes), got %d lines (%d bytes)",
		len(wl), len(want), len(gl), len(got))
}

// TestReRecordMatchesCorpus re-records every corpus pair on the full
// machine (once per test binary, shared through recorded) and demands
// the fresh stream be byte-identical to the committed one: every event,
// counter, hash and digest. Every per-block tag history must also walk
// the MSI machine legally.
func TestReRecordMatchesCorpus(t *testing.T) {
	for _, p := range CorpusPairs() {
		t.Run(p.Name(), func(t *testing.T) {
			t.Parallel()
			s, err := recorded(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := CheckTagMachine(s); err != nil {
				t.Fatal(err)
			}
			got := s.Encode()
			if *update {
				if err := os.WriteFile(tracePath(p), got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			if err := compareStreams(readTrace(t, p), got); err != nil {
				t.Fatalf("%s: %v\nThe simulated message schedule changed. If that is intended, re-pin every fence with `make repin`.",
					tracePath(p), err)
			}
		})
	}
}

// TestCorpusComplete pins the corpus contents to CorpusPairs: a pair
// added to the matrix without a recorded trace, or a stale trace for a
// removed pair, both fail here.
func TestCorpusComplete(t *testing.T) {
	want := make(map[string]bool)
	for _, p := range CorpusPairs() {
		want[filepath.Base(tracePath(p))] = true
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

// TestDifferentialMatrix compares the fresh recordings of every app
// under every protocol of the ideal-network corpus (CheckDifferential):
// the systems must agree on what each processor observed and on the
// final shared memory. A pair whose recording fails fails the matrix.
func TestDifferentialMatrix(t *testing.T) {
	for _, app := range []string{"em3d", "ocean"} {
		t.Run(app, func(t *testing.T) {
			t.Parallel()
			var streams []*Stream
			for _, p := range CorpusPairs() {
				if p.App != app || p.Contended {
					continue
				}
				s, err := recorded(p)
				if err != nil {
					t.Fatal(err)
				}
				streams = append(streams, s)
			}
			if err := CheckDifferential(streams); err != nil {
				t.Fatal(err)
			}
		})
	}
}

package conform

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The committed corpus is a golden file. After a deliberate behaviour
// change, re-record it with:
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
		t.Fatalf("%v (re-record with -update)", err)
	}
	return data
}

// recordChecked records p on the full machine, runs the tag-machine
// checker over the fresh stream, and returns its encoding.
func recordChecked(p Pair) ([]byte, error) {
	s, err := Record(p, RecordOptions{})
	if err != nil {
		return nil, err
	}
	if err := CheckTagMachine(s); err != nil {
		return nil, err
	}
	return s.Encode(), nil
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
// machine and demands the fresh stream be byte-identical to the
// committed one: every event, counter, hash and digest. Every per-block
// tag history must also walk the MSI machine legally.
func TestReRecordMatchesCorpus(t *testing.T) {
	for _, p := range CorpusPairs() {
		t.Run(p.Name(), func(t *testing.T) {
			t.Parallel()
			got, err := recordChecked(p)
			if err != nil {
				t.Fatal(err)
			}
			if *update {
				if err := os.WriteFile(tracePath(p), got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			if err := compareStreams(readTrace(t, p), got); err != nil {
				t.Fatalf("%s: %v\nThe simulated message schedule changed. If that is intended, re-record with -update.",
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

// TestDifferentialMatrix runs every app under every protocol and
// asserts identical application-visible memory semantics.
func TestDifferentialMatrix(t *testing.T) {
	for _, app := range DiffApps() {
		t.Run(app, func(t *testing.T) {
			t.Parallel()
			if err := RunDifferential(app, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
}

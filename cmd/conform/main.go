// Command conform drives the trace-replay conformance suite against the
// committed corpus under testdata/traces/.
//
// The default mode is the corpus gate: verify the sha256 manifest,
// decode every stream, replay each one standalone against the recorded
// message schedule (cycle-exact arrivals for every protocol, cycle-exact
// dispatch and occupancy for DirNNB), and run the per-block tag-machine
// checker over the traced transitions.
//
// -record re-runs every corpus pair on the full machine and compares
// the fresh recording byte-for-byte against the committed stream — the
// corpus-refresh policy: a simulator change that legitimately moves a
// message regenerates the corpus with -record -update and the diff
// shows exactly which messages moved. -diff runs the differential
// protocol matrix (same program under every protocol, identical
// application-visible memory semantics) instead of touching the corpus.
//
// Usage:
//
//	go run ./cmd/conform                      # manifest + decode + replay + tag check
//	go run ./cmd/conform -record              # re-record and compare to committed corpus
//	go run ./cmd/conform -record -update      # regenerate corpus and manifest
//	go run ./cmd/conform -diff                # differential matrix
//	make conform
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/tempest-sim/tempest/internal/conform"
)

func main() {
	dir := flag.String("dir", "testdata/traces", "corpus directory")
	record := flag.Bool("record", false, "re-record every corpus pair and compare to the committed streams")
	update := flag.Bool("update", false, "with -record: rewrite the corpus and manifest from the fresh recordings")
	diff := flag.Bool("diff", false, "run the differential protocol matrix instead of the corpus checks")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "conform:", err)
		os.Exit(1)
	}
	if *update && !*record {
		fail(fmt.Errorf("-update only applies with -record"))
	}

	switch {
	case *diff:
		for _, app := range conform.DiffApps() {
			if err := conform.RunDifferential(app, nil); err != nil {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "conform: differential %s ok\n", app)
		}

	case *record:
		for _, p := range conform.CorpusPairs() {
			got, err := conform.Record(p, conform.RecordOptions{})
			if err != nil {
				fail(err)
			}
			path := conform.TracePath(*dir, p)
			if *update {
				if err := conform.SaveStream(path, got); err != nil {
					fail(err)
				}
				fmt.Fprintf(os.Stderr, "conform: wrote %s (%d events)\n", path, len(got.Events))
				continue
			}
			want, err := conform.LoadStream(path)
			if err != nil {
				fail(fmt.Errorf("%w (regenerate with -record -update)", err))
			}
			if err := conform.CompareStreams(want, got); err != nil {
				fail(fmt.Errorf("%s: %w\nSimulated message schedule changed. If intentional, regenerate with -record -update.", path, err))
			}
			fmt.Fprintf(os.Stderr, "conform: re-record matches %s\n", path)
		}
		if *update {
			if err := conform.WriteManifest(*dir); err != nil {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "conform: wrote %s/%s\n", *dir, conform.ManifestName)
		}

	default:
		if err := conform.CheckManifest(*dir); err != nil {
			fail(err)
		}
		for _, p := range conform.CorpusPairs() {
			s, err := conform.LoadStream(conform.TracePath(*dir, p))
			if err != nil {
				fail(err)
			}
			if err := conform.Replay(s); err != nil {
				fail(err)
			}
			if err := conform.CheckTagMachine(s); err != nil {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "conform: %s ok (%d events)\n", p.Name(), len(s.Events))
		}
	}
}

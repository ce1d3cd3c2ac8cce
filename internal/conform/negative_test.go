package conform

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/tempest-sim/tempest/internal/harness"
	"github.com/tempest-sim/tempest/internal/network"
	"github.com/tempest-sim/tempest/internal/stache"
	"github.com/tempest-sim/tempest/internal/trace"
	"github.com/tempest-sim/tempest/internal/typhoon"
)

// The negative suite: each test injects one specific lie — a tampered
// trace, a protocol handler bug — and demands the matching conformance
// check catch it. A checker that passes everything proves nothing.

func wantErr(t *testing.T, err error, substr string) {
	t.Helper()
	if err == nil {
		t.Fatalf("tamper went undetected (want error containing %q)", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("error %q does not mention %q", err, substr)
	}
}

// findKind returns the index of the n-th event of the given kind.
func findKind(t *testing.T, s *Stream, kind trace.Kind, n int) int {
	t.Helper()
	for i, ev := range s.Events {
		if ev.Kind == kind {
			if n == 0 {
				return i
			}
			n--
		}
	}
	t.Fatalf("stream has no event %d of kind %v", n, kind)
	return -1
}

// TestCorpusCompareNamesTamperedLine moves one committed arrival by a
// single cycle: the re-record must fail, naming that line.
func TestCorpusCompareNamesTamperedLine(t *testing.T) {
	p := Pair{App: "em3d", System: harness.SysStache}
	lines := strings.Split(string(readTrace(t, p)), "\n")
	n, at := 0, -1
	for i, l := range lines {
		if strings.Contains(l, " "+trace.KNetArrive.String()+" ") {
			if n == 40 {
				at = i
				break
			}
			n++
		}
	}
	if at < 0 {
		t.Fatal("committed stream has fewer than 41 arrivals")
	}
	cycle, err := strconv.ParseUint(strings.Fields(lines[at])[0], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	lines[at] = fmt.Sprintf("%10d", cycle+1) + lines[at][10:]
	got, err := recordChecked(p)
	if err != nil {
		t.Fatal(err)
	}
	err = compareStreams([]byte(strings.Join(lines, "\n")), got)
	wantErr(t, err, fmt.Sprintf("line %d:\n  want: %s", at+1, lines[at]))
}

// TestCorpusCompareCatchesMissingEnd drops a committed trace's closing
// "end" line: every line present still matches, so the re-record must
// fail on length.
func TestCorpusCompareCatchesMissingEnd(t *testing.T) {
	p := Pair{App: "ocean", System: harness.SysDirNNB}
	want, ok := bytes.CutSuffix(readTrace(t, p), []byte("\nend\n"))
	if !ok {
		t.Fatal(`committed stream does not close with an "end" line`)
	}
	got, err := recordChecked(p)
	if err != nil {
		t.Fatal(err)
	}
	wantErr(t, compareStreams(want, got), "diverge in length")
}

// TestTagCheckerCatchesIllegalTransition feeds the checker a tag
// history no MSI walk allows (ReadOnly retagged ReadOnly) and a block
// left pending at end of run.
func TestTagCheckerCatchesIllegalTransition(t *testing.T) {
	s, err := Record(Pair{App: "ocean", System: harness.SysStache}, RecordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	recorded := s.Events
	i := findKind(t, s, trace.KTagChange, 60)
	// Duplicate a tag event immediately after itself: a self-loop,
	// illegal from every state.
	s.Events = slices.Insert(slices.Clone(recorded), i+1, recorded[i])
	wantErr(t, CheckTagMachine(s), "illegal tag transition")

	s.Events = slices.Clone(recorded)
	s.Events[i].Aux = 3 // mem.TagBusy; depending on the block's history this is
	// either an illegal edge or an unresolved transaction at end of run
	if err := CheckTagMachine(s); err == nil {
		t.Fatal("forced Busy tag went undetected")
	}
}

// TestRecheckCatchesInjectedBug wires a timing bug into Stache's data
// reply — seven extra NP cycles per HDataRO — and re-records: the
// full-machine stream comparison must pinpoint a divergence even though
// the application still computes the right answer.
func TestRecheckCatchesInjectedBug(t *testing.T) {
	p := Pair{App: "em3d", System: harness.SysStache}
	got, err := Record(p, RecordOptions{Mutate: func(sys *typhoon.System) {
		sys.WrapHandler(stache.HDataRO, func(h typhoon.Handler) typhoon.Handler {
			return func(np *typhoon.NP, pkt *network.Packet) {
				np.Charge(7)
				h(np, pkt)
			}
		})
	}})
	if err != nil {
		t.Fatal(err)
	}
	wantErr(t, compareStreams(readTrace(t, p), got.Encode()), "diverge")
}

// TestDifferentialCatchesInjectedBug corrupts the data Stache's home
// sends to read requesters — the classic wrong-data coherence bug — and
// runs the matrix: the protocols no longer agree on what the program
// observed, and the comparison must say so. SkipVerify keeps the
// application's own answer check out of the way, so it is the
// differential layer doing the catching.
func TestDifferentialCatchesInjectedBug(t *testing.T) {
	mut := &DiffMutation{
		SkipVerify: true,
		Mutate: func(sys *typhoon.System) {
			if !sys.HasHandler(stache.HDataRO) {
				return
			}
			sys.WrapHandler(stache.HDataRO, func(h typhoon.Handler) typhoon.Handler {
				return func(np *typhoon.NP, pkt *network.Packet) {
					if len(pkt.Data) > 0 {
						pkt.Data[len(pkt.Data)-1] ^= 0xFF
					}
					h(np, pkt)
				}
			})
		},
	}
	if err := RunDifferential("em3d", mut); err == nil {
		t.Fatal("corrupted data replies went undetected by the differential matrix")
	}
}

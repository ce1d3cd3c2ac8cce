package conform

import (
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
// layer catch it. A checker that passes everything proves nothing.

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

// TestReplayCatchesTamperedArrival moves one recorded delivery by a
// single cycle: the replayed network recomputes the true schedule and
// must flag the disagreement.
func TestReplayCatchesTamperedArrival(t *testing.T) {
	s := loadCorpus(t, Pair{App: "em3d", System: harness.SysStache})
	s.Events[findKind(t, s, trace.KNetArrive, 40)].T++
	wantErr(t, Replay(s), "arrival")
}

// TestReplayCatchesTamperedSend stretches one send's injection delay:
// the packet departs a cycle late, so its arrival — and under
// contention every arrival queued behind it — diverges.
func TestReplayCatchesTamperedSend(t *testing.T) {
	s := loadCorpus(t, Pair{App: "em3d", System: harness.SysStache, Contended: true})
	s.Events[findKind(t, s, trace.KNetSend, 25)].VA++
	wantErr(t, Replay(s), "diverges")
}

// TestReplayCatchesTamperedDispatch moves a DirNNB dispatch start: the
// directory agent's timeline is message-determined, so the strict check
// must reject it.
func TestReplayCatchesTamperedDispatch(t *testing.T) {
	s := loadCorpus(t, Pair{App: "em3d", System: harness.SysDirNNB})
	s.Events[findKind(t, s, trace.KNetDeliver, 40)].T++
	wantErr(t, Replay(s), "dispatch")
}

// TestReplayCatchesTamperedIdentity swaps a dispatched message's
// handler: identity is checked for every protocol, NP streams included.
func TestReplayCatchesTamperedIdentity(t *testing.T) {
	s := loadCorpus(t, Pair{App: "ocean", System: harness.SysStache})
	ev := &s.Events[findKind(t, s, trace.KNetDeliver, 40)]
	h, src, dst, vnet, bytes := trace.UnpackMsg(ev.Aux)
	ev.Aux = trace.PackMsg(h+1, src, dst, vnet, bytes)
	wantErr(t, Replay(s), "identity")
}

// TestReplayCatchesTamperedOccCounter falsifies the recorded occupancy
// counters of a contended DirNNB run: the replayed agents recompute the
// exact queueing and must disagree.
func TestReplayCatchesTamperedOccCounter(t *testing.T) {
	s := loadCorpus(t, Pair{App: "em3d", System: harness.SysDirNNB, Contended: true})
	found := false
	for i := range s.Counters {
		if s.Counters[i].Name == "dirnnb.occ_wait_cycles" {
			s.Counters[i].Value++
			found = true
		}
	}
	if !found {
		t.Fatal("contended dirnnb stream has no dirnnb.occ_wait_cycles counter")
	}
	wantErr(t, Replay(s), "occupancy counters diverge")
}

// TestReplayRejectsMalformedStream exercises the structured-error
// contract on streams no recording could produce.
func TestReplayRejectsMalformedStream(t *testing.T) {
	base := func() *Stream { return loadCorpus(t, Pair{App: "ocean", System: harness.SysDirNNB}) }

	s := base()
	s.Truncated = true
	wantErr(t, Replay(s), "truncated")

	s = base()
	ev := &s.Events[findKind(t, s, trace.KNetSend, 0)]
	h, src, dst, vnet, _ := trace.UnpackMsg(ev.Aux)
	ev.Aux = trace.PackMsg(h, src, dst, vnet, 200) // oversized payload
	wantErr(t, Replay(s), "payload")

	s = base()
	ev = &s.Events[findKind(t, s, trace.KNetSend, 0)]
	ev.Node = (ev.Node + 1) % s.Cfg.Nodes // send recorded on the wrong node
	wantErr(t, Replay(s), "src")
}

// TestTagCheckerCatchesIllegalTransition feeds the checker a tag
// history no MSI walk allows (ReadOnly retagged ReadOnly) and a block
// left pending at end of run.
func TestTagCheckerCatchesIllegalTransition(t *testing.T) {
	s := loadCorpus(t, Pair{App: "ocean", System: harness.SysStache})
	i := findKind(t, s, trace.KTagChange, 60)
	// Duplicate a tag event immediately after itself: a self-loop,
	// illegal from every state.
	dup := s.Events[i]
	s.Events = append(s.Events[:i+1], append([]trace.Event{dup}, s.Events[i+1:]...)...)
	wantErr(t, CheckTagMachine(s), "illegal tag transition")

	s = loadCorpus(t, Pair{App: "ocean", System: harness.SysStache})
	ev := &s.Events[findKind(t, s, trace.KTagChange, 60)]
	ev.Aux = 3 // mem.TagBusy; depending on the block's history this is
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
	want := loadCorpus(t, p)
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
	wantErr(t, CompareStreams(want, got), "diverge")
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

package conform

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"github.com/tempest-sim/tempest/internal/harness"
	"github.com/tempest-sim/tempest/internal/machine"
	"github.com/tempest-sim/tempest/internal/trace"
)

// seedStream is a tiny hand-built stream exercising every event kind
// the replayer interprets: two nodes, one message each way, matched
// arrivals and dispatches.
func seedStream() *Stream {
	msg01 := trace.PackMsg(17, 0, 1, 0, 12)
	msg10 := trace.PackMsg(18, 1, 0, 1, 4)
	return &Stream{
		App: "em3d", System: "dirnnb", Workload: "tiny",
		Cfg: machine.Config{Nodes: 2, CacheSize: 8 << 10, CacheWays: 2, BlockSize: 32, TLBEntries: 16,
			LocalMissCycles: 10, TLBMissCycles: 25, NetLatency: 11, BarrierLatency: 11},
		Events: []trace.Event{
			{T: 5, Node: 0, Kind: trace.KNetSend, VA: 1, Aux: msg01},
			{T: 17, Node: 0, Kind: trace.KNetArrive, Aux: msg10},
			{T: 17, Node: 0, Kind: trace.KNetDeliver, VA: 2, Aux: msg10},
			{T: 0, Node: 1, Kind: trace.KTagChange, VA: 0x10000, Aux: 3},
			{T: 6, Node: 1, Kind: trace.KNetSend, Aux: msg10},
			{T: 9, Node: 1, Kind: trace.KTagChange, VA: 0x10000, Aux: 1},
			{T: 17, Node: 1, Kind: trace.KNetArrive, Aux: msg01},
			{T: 17, Node: 1, Kind: trace.KNetDeliver, VA: 1, Aux: msg01},
		},
		Cycles: 20, ROICycles: 18,
		Counters:  []Counter{{Name: "net.msgs", Value: 2}},
		Obs:       []ObsRow{{Node: 0, Hash: 0x1, Ops: 3}, {Node: 1, Hash: 0x2, Ops: 4}},
		MemDigest: "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef",
	}
}

// fuzzReplayLimit bounds the streams the fuzz body replays: plan() is
// linear, but each replayed send costs engine work, so only small
// streams go through the full engine.
const fuzzReplayLimit = 512

// FuzzStream is the trace-mutating fuzz target: whatever bytes arrive,
// decoding yields either a structured *DecodeError or a stream whose
// encoding is exactly those bytes (one spelling per stream — the
// committed seeds with "nodes +2", "cache 08192", "proto 0xFF", a
// double-spaced counter line and a re-padded event line all decoded
// before this was pinned); and every decoded stream may be fed to
// the replayer and the tag checker, which must return errors — never
// panic, never diverge silently into wrong results. (Semantic
// divergence is impossible by construction: replay only ever compares
// against the stream itself, so a fuzzed stream can fail but cannot
// corrupt a verdict about the committed corpus.)
func FuzzStream(f *testing.F) {
	f.Add(seedStream().Encode())
	// A real recorded stream, so mutations explore the actual corpus
	// format, footer included.
	if raw, err := os.ReadFile(TracePath(corpusDir, Pair{App: "ocean", System: harness.SysDirNNB})); err == nil {
		f.Add(raw)
	}
	// Header-only truncations and corruptions.
	enc := seedStream().Encode()
	f.Add(enc[:len(enc)/2])
	f.Add(bytes.Replace(enc, []byte("events 8"), []byte("events 99"), 1))
	f.Add(bytes.Replace(enc, []byte("truncated 0"), []byte("truncated 1"), 1))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			var derr *DecodeError
			if !errors.As(err, &derr) {
				t.Fatalf("Decode returned a non-structured error: %v", err)
			}
			return
		}
		if enc := s.Encode(); !bytes.Equal(enc, data) {
			t.Fatalf("accepted non-canonical input:\n in  %q\n out %q", data, enc)
		}
		// Replay and the tag checker accept arbitrary decoded streams
		// and must fail structurally, not panic.
		if len(s.Events) <= fuzzReplayLimit && s.Cfg.Nodes <= 8 {
			_ = Replay(s)
		}
		_ = CheckTagMachine(s)
	})
}

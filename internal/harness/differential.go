package harness

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"github.com/tempest-sim/tempest/internal/apps"
	"github.com/tempest-sim/tempest/internal/machine"
	"github.com/tempest-sim/tempest/internal/mem"
	"github.com/tempest-sim/tempest/internal/trace"
	"github.com/tempest-sim/tempest/internal/typhoon"
)

// The observed run is what a conformance recording (internal/conform)
// runs: the funnel with a tracer, per-processor observation and the
// post-run digests attached. Its application-visible outcome is two
// signals, which the conformance suite compares across protocols:
//
//   - Observations: every processor's program-order (address, value,
//     read/write) history, folded into an order-sensitive hash
//     (machine.Observation) with its operation count. For a
//     data-race-free program the history is protocol-independent.
//   - Memory: the coherent post-run contents of every shared segment,
//     digested word-by-word (the home copy, or the owner's when a
//     protocol holds the block dirty remotely).
//
// The timing of the systems differs wildly — that is the paper's point —
// but the memory semantics must not.

// DiffOptions tunes one observed run.
type DiffOptions struct {
	// Mutate, when non-nil, is applied to the Typhoon system before the
	// run — the conformance suite's fault-injection hook (WrapHandler).
	// Rejected for SysDirNNB, which has no Typhoon system to mutate.
	Mutate func(*typhoon.System)
	// SkipVerify skips the application's own Verify, so an injected
	// protocol bug is caught by the differential comparison itself
	// rather than by the app's answer check.
	SkipVerify bool
	// Tracer, when non-nil, records the run: RunObserved sets it as the
	// machine's network.Network.Tracer, the one recorder. Every system
	// records the network-level message stream there (KNetSend, KNetArrive,
	// KNetDeliver); Typhoon systems add their protocol-level events.
	Tracer *trace.Tracer
}

// DiffObservation is one observed run.
type DiffObservation struct {
	// FinalProcs/FinalOps are the per-processor observation hashes and
	// operation counts after Run.
	FinalProcs []uint64
	FinalOps   []uint64
	// MemDigest is the sha256 of the coherent shared-memory contents.
	MemDigest string
	// ProtoDigest is the protocol's post-run StateDigest (Stache or the
	// update protocol's directory and requester state, DirNNB's
	// directory and transactions). TagsDigest is the Typhoon
	// system's post-run access-tag digest (zero for DirNNB, whose tags
	// live in the hardware directory already covered by ProtoDigest).
	// Both are recorded in a conformance stream's footer and compared on
	// re-record, never across systems.
	ProtoDigest uint64
	TagsDigest  uint64
	Res         machine.Result
}

// RunObserved is the funnel with the observed run's instruments
// attached: it runs the point with observation enabled, verifying the
// result (unless opt.SkipVerify) and returning the observation. The machine config is used as given.
func RunObserved(pt Point, opt DiffOptions) (DiffObservation, error) {
	if err := pt.Validate(); err != nil {
		return DiffObservation{}, err
	}
	in, err := pt.install()
	if err != nil {
		return DiffObservation{}, err
	}
	m := in.m
	m.Net.Tracer = opt.Tracer
	if opt.Mutate != nil {
		if in.tsys == nil {
			return DiffObservation{}, fmt.Errorf("harness: %s: cannot mutate %s (no Typhoon system)", pt.Label(), pt.System)
		}
		opt.Mutate(in.tsys)
	}
	app, err := pt.makeApp(in)
	if err != nil {
		return DiffObservation{}, err
	}
	m.EnableObservation()
	var obs DiffObservation
	if obs.Res, err = pt.execute(in, app, opt.SkipVerify); err != nil {
		return DiffObservation{}, err
	}
	obs.FinalProcs = make([]uint64, len(m.Procs))
	obs.FinalOps = make([]uint64, len(m.Procs))
	for i, p := range m.Procs {
		obs.FinalProcs[i], obs.FinalOps[i] = p.Observation()
	}
	obs.MemDigest = SharedMemoryDigest(m)
	switch {
	case in.dsys != nil:
		obs.ProtoDigest = in.dsys.StateDigest()
	case in.upd != nil:
		obs.ProtoDigest, obs.TagsDigest = in.upd.StateDigest(), in.tsys.StateDigest()
	default:
		obs.ProtoDigest, obs.TagsDigest = in.st.StateDigest(), in.tsys.StateDigest()
	}
	return obs, nil
}

// SharedMemoryDigest hashes the coherent contents of every shared
// segment, word by word in address order, after Run. "Coherent" is the
// apps.ReadBack view: the home copy unless a protocol holds the block
// dirty remotely. Pages the home has no mapping for are skipped
// deterministically.
func SharedMemoryDigest(m *machine.Machine) string {
	h := sha256.New()
	var buf [8]byte
	for _, seg := range m.VM.Segments() {
		checkedPage := ^mem.VA(0)
		pageOK := false
		for off := uint64(0); off+8 <= seg.Size; off += 8 {
			va := seg.At(off)
			if pb := va.PageBase(); pb != checkedPage {
				checkedPage = pb
				_, _, pageOK = m.VM.Translate(m.VM.Home(va), va)
			}
			if !pageOK {
				continue
			}
			binary.LittleEndian.PutUint64(buf[:], apps.ReadBackU64(m, va))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

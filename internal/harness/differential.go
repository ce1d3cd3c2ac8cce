package harness

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"github.com/tempest-sim/tempest/internal/apps"
	"github.com/tempest-sim/tempest/internal/machine"
	"github.com/tempest-sim/tempest/internal/mem"
	"github.com/tempest-sim/tempest/internal/sim"
	"github.com/tempest-sim/tempest/internal/trace"
	"github.com/tempest-sim/tempest/internal/typhoon"
)

// The differential harness runs the same program under every protocol
// and asserts identical application-visible memory semantics. Two
// signals define "identical":
//
//   - Observations: every processor's program-order (address, value,
//     read/write) history, hashed (machine.Observation) and checkpointed
//     at each barrier release. For a data-race-free program the history
//     is protocol-independent, and at the k-th release each processor
//     has performed exactly its first k phases' operations — so the
//     checkpoint rows are comparable protocol-to-protocol whenever the
//     barrier structure matches (EM3D-update's fuzzy barrier elides
//     hardware barriers, so for it only the final row is compared).
//   - Memory: the coherent post-run contents of every shared segment,
//     digested word-by-word (the home copy, or the owner's when a
//     protocol holds the block dirty remotely).
//
// The timing of the systems differs wildly — that is the paper's point —
// but the memory semantics must not.

// DiffApps are the applications the differential matrix runs: one graph
// kernel with irregular remote traffic and one stencil with regular
// neighbour sharing.
var DiffApps = []string{"em3d", "ocean"}

// DiffSystemsFor lists the systems the differential matrix compares for
// an application: the hardware directory, Typhoon running Stache, the
// software Tempest (Blizzard) running the same unmodified Stache, and —
// for em3d — the application-specific update protocol.
func DiffSystemsFor(app string) []System {
	out := []System{SysDirNNB, SysStache, SysBlizzard}
	if app == "em3d" {
		out = append(out, SysUpdate)
	}
	return out
}

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

// DiffObservation is one observed run of the matrix.
type DiffObservation struct {
	System System
	App    string
	// Epochs holds one row per barrier release: each processor's
	// observation hash at that instant.
	Epochs [][]uint64
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

// RunObserved is the funnel with the differential harness's
// instruments attached: it runs the point with observation enabled and
// per-barrier checkpoints, verifying the result (unless opt.SkipVerify)
// and returning the observation. The machine config is used as given.
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
	obs := DiffObservation{System: pt.System, App: pt.workload()}
	// The release callback runs with every participant parked at the
	// barrier, so reading each processor's observation here is the
	// deterministic machine-wide checkpoint.
	m.Bar.OnRelease(func(epoch uint64, at sim.Time) {
		row := make([]uint64, len(m.Procs))
		for i, p := range m.Procs {
			row[i], _ = p.Observation()
		}
		obs.Epochs = append(obs.Epochs, row)
	})
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

// CompareObservations checks a set of observed runs of the same app for
// identical application-visible memory semantics: equal final
// per-processor observation histories, equal coherent memory, and equal
// per-epoch checkpoints among runs with the same barrier structure. The
// error names the first diverging pair precisely enough to debug from.
func CompareObservations(results []DiffObservation) error {
	if len(results) < 2 {
		return nil
	}
	ref := results[0]
	for _, r := range results[1:] {
		if r.App != ref.App {
			return fmt.Errorf("differential: comparing different apps %q and %q", ref.App, r.App)
		}
		if r.MemDigest != ref.MemDigest {
			return fmt.Errorf("differential: %s: final shared memory differs between %s (%s) and %s (%s)",
				ref.App, ref.System, ref.MemDigest[:12], r.System, r.MemDigest[:12])
		}
		if len(r.FinalProcs) != len(ref.FinalProcs) {
			return fmt.Errorf("differential: %s: node count differs between %s and %s", ref.App, ref.System, r.System)
		}
		for i := range ref.FinalProcs {
			if r.FinalOps[i] != ref.FinalOps[i] {
				return fmt.Errorf("differential: %s: node %d performed %d data ops under %s but %d under %s",
					ref.App, i, ref.FinalOps[i], ref.System, r.FinalOps[i], r.System)
			}
			if r.FinalProcs[i] != ref.FinalProcs[i] {
				return fmt.Errorf("differential: %s: node %d observation history diverges between %s and %s (%#x vs %#x)",
					ref.App, i, ref.System, r.System, ref.FinalProcs[i], r.FinalProcs[i])
			}
		}
		// Epoch-by-epoch comparison only makes sense when the hardware
		// barrier structure matches (the update protocol's fuzzy barrier
		// runs fewer hardware barriers than plain em3d).
		if len(r.Epochs) != len(ref.Epochs) {
			continue
		}
		for e := range ref.Epochs {
			for i := range ref.Epochs[e] {
				if r.Epochs[e][i] != ref.Epochs[e][i] {
					return fmt.Errorf("differential: %s: barrier epoch %d node %d diverges between %s and %s",
						ref.App, e, i, ref.System, r.System)
				}
			}
		}
	}
	return nil
}

package resultcache

import (
	"bytes"
	"fmt"
	"sort"

	"github.com/tempest-sim/tempest/internal/network"
	"github.com/tempest-sim/tempest/internal/wiretext"
)

// entryMagic is the format header; bumping the version invalidates
// every on-disk entry (older files decode to a version-skew *Error and
// fall back to simulation).
const entryMagic = "tempest-resultcache v1"

// ObsRecord is one processor's final observation (machine.Observation
// hash and operation count), recorded when the run had observation
// enabled.
type ObsRecord struct {
	Hash, Ops uint64
}

// Entry is one cached simulation result: everything the harness needs
// to reconstruct a RunResult without re-simulating, stored in a
// versioned, checksummed, canonical text format (one encoding per
// entry — Decode rejects any non-canonical byte, so decode→re-encode
// is the identity on valid entries).
//
// Engine-mechanics counters (the "engine." prefix: dispatch hosting)
// are deliberately absent: they describe how the recording host ran the
// simulation, not what was simulated. The cache stores simulated results
// only.
type Entry struct {
	// Key is the content address the entry is stored under.
	Key Key
	// Code is the code digest the key was computed with.
	Code string
	// System and App identify the run for reconstruction and reports.
	// Like Code they must be non-empty: Decode refuses an empty value on
	// any line, so an entry encoded without one does not read back.
	System, App string
	// Origin is a provenance note that encodes and decodes but that no
	// producer sets. Kept because benchmark/ names the field; the
	// `benchmark`-archetype PR deletes it and its origin line.
	Origin string
	// Cycles and ROI are machine.Result.Cycles and ROICycles.
	Cycles, ROI uint64
	// Obs holds per-processor observation records in node order, when
	// the run had observation enabled.
	Obs []ObsRecord
	// Counters is the simulated-event counter map (engine.* excluded).
	Counters map[string]uint64
	// Net is the interconnect traffic summary.
	Net network.Stats
}

// Encode renders the canonical byte form: header, ordered sections,
// and a trailing sha256 line over everything before it.
func (e *Entry) Encode() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s\n", entryMagic)
	fmt.Fprintf(&b, "key %s\n", e.Key)
	fmt.Fprintf(&b, "code %s\n", e.Code)
	fmt.Fprintf(&b, "system %s\n", e.System)
	fmt.Fprintf(&b, "app %s\n", e.App)
	if e.Origin != "" {
		fmt.Fprintf(&b, "origin %s\n", e.Origin)
	}
	fmt.Fprintf(&b, "cycles %d\n", e.Cycles)
	fmt.Fprintf(&b, "roi %d\n", e.ROI)
	for i, o := range e.Obs {
		fmt.Fprintf(&b, "obs %d %d %d\n", i, o.Hash, o.Ops)
	}
	names := make([]string, 0, len(e.Counters))
	for name := range e.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "counter %s %d\n", name, e.Counters[name])
	}
	for i, v := range e.Net.VNets {
		fmt.Fprintf(&b, "net %d %d %d %d %d\n", i, v.Packets, v.PayloadBytes, v.QueueingCycles, v.MaxQueueDepth)
	}
	fmt.Fprintf(&b, "netlocal %d\n", e.Net.LocalSends)
	return wiretext.Seal(&b)
}

// Decode parses a canonical entry. Every failure is a structured
// *Error: version skew (unknown magic line), truncation (missing
// sections or checksum), and corruption (checksum mismatch, malformed
// or non-canonical fields, trailing bytes) are all reported, never
// panicked on, so a cache lookup can always fall back to simulation.
func Decode(data []byte) (*Entry, error) {
	return decode(data, "")
}

// decode is the entry's field list over the shared reader (DESIGN.md
// "Text formats"): fixed-order lines, obs and net rows numbered in
// order, counters strictly ascending by name.
func decode(data []byte, path string) (*Entry, error) {
	r := wiretext.Unseal(data, entryMagic, "entry")
	e := &Entry{Counters: make(map[string]uint64)}
	var err error
	if e.Key, err = ParseKey(r.Line("key").Token()); err != nil {
		r.Failf("%v", err)
	}
	e.Code = r.Line("code").Rest()
	e.System = r.Line("system").Rest()
	e.App = r.Line("app").Rest()
	if r.Optional("origin") {
		e.Origin = r.Rest()
	}
	e.Cycles = r.Line("cycles").Uint()
	e.ROI = r.Line("roi").Uint()
	for r.Optional("obs") {
		if idx := r.Uint(); idx != uint64(len(e.Obs)) {
			r.Failf("obs index %d out of order (want %d)", idx, len(e.Obs))
		}
		e.Obs = append(e.Obs, ObsRecord{Hash: r.Uint(), Ops: r.Uint()})
	}
	prev := ""
	for r.Optional("counter") {
		name := r.Token()
		if prev != "" && name <= prev {
			r.Failf("counter %q out of sorted order (after %q)", name, prev)
		}
		prev = name
		e.Counters[name] = r.Uint()
	}
	for i := range e.Net.VNets {
		if idx := r.Line("net").Uint(); idx != uint64(i) {
			r.Failf("net vnet %d out of order (want %d)", idx, i)
		}
		v := &e.Net.VNets[i]
		v.Packets, v.PayloadBytes, v.QueueingCycles, v.MaxQueueDepth = r.Uint(), r.Uint(), r.Uint(), r.Uint()
	}
	e.Net.LocalSends = r.Line("netlocal").Uint()
	r.End()
	if err := r.Err(); err != nil {
		return nil, &Error{Op: "decode", Path: path, Msg: err.Error()}
	}
	return e, nil
}

// CheckMatch compares a cached entry against a freshly simulated one
// (same key) and returns a structured verify *Error naming the first
// divergence — the -cache-verify failure path. Provenance (Origin) and
// the code digest are not compared: the key already pins the code.
func CheckMatch(cached, fresh *Entry) error {
	fail := func(format string, args ...any) error {
		return &Error{Op: "verify", Msg: fmt.Sprintf(format, args...)}
	}
	if cached.Cycles != fresh.Cycles {
		return fail("cycles diverge: cached %d, re-simulated %d", cached.Cycles, fresh.Cycles)
	}
	if cached.ROI != fresh.ROI {
		return fail("ROI cycles diverge: cached %d, re-simulated %d", cached.ROI, fresh.ROI)
	}
	for name, v := range cached.Counters {
		if fv, ok := fresh.Counters[name]; !ok || fv != v {
			return fail("counter %s diverges: cached %d, re-simulated %d", name, v, fresh.Counters[name])
		}
	}
	for name, v := range fresh.Counters {
		if _, ok := cached.Counters[name]; !ok {
			return fail("counter %s present only in re-simulation (%d)", name, v)
		}
	}
	if cached.Net != fresh.Net {
		return fail("network stats diverge: cached %+v, re-simulated %+v", cached.Net, fresh.Net)
	}
	if len(cached.Obs) != len(fresh.Obs) {
		return fail("observation record count diverges: cached %d, re-simulated %d", len(cached.Obs), len(fresh.Obs))
	}
	for i := range cached.Obs {
		if cached.Obs[i] != fresh.Obs[i] {
			return fail("node %d observation diverges: cached %+v, re-simulated %+v", i, cached.Obs[i], fresh.Obs[i])
		}
	}
	return nil
}

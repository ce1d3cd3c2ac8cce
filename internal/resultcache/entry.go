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
// "Text formats"): fixed-order lines, net rows numbered in order,
// counters strictly ascending by name.
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

package resultcache

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"github.com/tempest-sim/tempest/internal/network"
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
// Engine-mechanics counters (the "engine." prefix: dispatch hosting
// and window grants) are deliberately absent: they describe how the
// recording host ran the simulation, not what was simulated, and they
// are the one counter group that legitimately varies with the shard
// count a result was produced at. The cache stores simulated results
// only.
type Entry struct {
	// Key is the content address the entry is stored under.
	Key Key
	// Code is the code digest the key was computed with.
	Code string
	// System and App identify the run for reconstruction and reports.
	System, App string
	// Origin is the entry's provenance: empty for a fresh simulation,
	// or a derivation note (e.g. "witness:4K" for a Figure 3
	// zero-eviction alias — the result proven bit-identical to the run
	// at the named smaller cache size).
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

// WithKey returns a shallow copy of e stored under a different content
// address with the given provenance — the Figure 3 witness-alias path.
// The counter map is shared; entries are read-only by convention.
func (e *Entry) WithKey(k Key, origin string) *Entry {
	c := *e
	c.Key = k
	c.Origin = origin
	return &c
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
	return Seal(&b)
}

// decoder walks the canonical line sequence, failing with a structured
// *Error on the first non-canonical byte.
type decoder struct {
	lines []string
	pos   int
	path  string
}

func (d *decoder) fail(msg string) *Error {
	return &Error{Op: "decode", Path: d.path, Msg: msg}
}

// next returns the current line without consuming it ("" when
// exhausted, with ok=false).
func (d *decoder) next() (string, bool) {
	if d.pos >= len(d.lines) {
		return "", false
	}
	return d.lines[d.pos], true
}

// uint parses a canonical base-10 uint64 token (CanonUint), naming the
// field in the error.
func (d *decoder) uint(tok, what string) (uint64, error) {
	v, err := CanonUint(tok)
	if err != nil {
		return 0, d.fail(what + " " + err.Error())
	}
	return v, nil
}

// Decode parses a canonical entry. Every failure is a structured
// *Error: version skew (unknown magic line), truncation (missing
// sections or checksum), and corruption (checksum mismatch, malformed
// or non-canonical fields, trailing bytes) are all reported, never
// panicked on, so a cache lookup can always fall back to simulation.
func Decode(data []byte) (*Entry, error) {
	return decode(data, "")
}

func decode(data []byte, path string) (*Entry, error) {
	d := &decoder{path: path}
	lines, err := Unseal(data, entryMagic, "entry")
	if err != nil {
		return nil, d.fail(err.Error())
	}
	d.lines = lines

	e := &Entry{Counters: make(map[string]uint64)}
	// Required headers, in order; values are the rest of the line.
	take := func(prefix string) (string, error) {
		l, ok := d.next()
		if !ok {
			return "", d.fail(fmt.Sprintf("truncated entry: missing %q line", prefix))
		}
		v, ok := strings.CutPrefix(l, prefix+" ")
		if !ok {
			return "", d.fail(fmt.Sprintf("expected %q line, got %q", prefix, l))
		}
		d.pos++
		return v, nil
	}
	keyTok, err := take("key")
	if err != nil {
		return nil, err
	}
	if e.Key, err = ParseKey(keyTok); err != nil {
		return nil, d.fail(err.Error())
	}
	if e.Code, err = take("code"); err != nil {
		return nil, err
	}
	if e.System, err = take("system"); err != nil {
		return nil, err
	}
	if e.App, err = take("app"); err != nil {
		return nil, err
	}
	if l, ok := d.next(); ok {
		if v, isOrigin := strings.CutPrefix(l, "origin "); isOrigin {
			if v == "" {
				return nil, d.fail("empty origin line is not canonical")
			}
			e.Origin = v
			d.pos++
		}
	}
	tok, err := take("cycles")
	if err != nil {
		return nil, err
	}
	if e.Cycles, err = d.uint(tok, "cycles"); err != nil {
		return nil, err
	}
	if tok, err = take("roi"); err != nil {
		return nil, err
	}
	if e.ROI, err = d.uint(tok, "roi"); err != nil {
		return nil, err
	}
	// Observation records: "obs <index> <hash> <ops>", indexes 0..n-1.
	for {
		l, ok := d.next()
		if !ok {
			break
		}
		v, isObs := strings.CutPrefix(l, "obs ")
		if !isObs {
			break
		}
		parts := strings.Split(v, " ")
		if len(parts) != 3 {
			return nil, d.fail(fmt.Sprintf("malformed obs line %q", l))
		}
		idx, err := d.uint(parts[0], "obs index")
		if err != nil {
			return nil, err
		}
		if idx != uint64(len(e.Obs)) {
			return nil, d.fail(fmt.Sprintf("obs index %d out of order (want %d)", idx, len(e.Obs)))
		}
		var o ObsRecord
		if o.Hash, err = d.uint(parts[1], "obs hash"); err != nil {
			return nil, err
		}
		if o.Ops, err = d.uint(parts[2], "obs ops"); err != nil {
			return nil, err
		}
		e.Obs = append(e.Obs, o)
		d.pos++
	}
	// Counters: "counter <name> <value>", strictly ascending names.
	prev := ""
	for {
		l, ok := d.next()
		if !ok {
			break
		}
		v, isCtr := strings.CutPrefix(l, "counter ")
		if !isCtr {
			break
		}
		name, valTok, found := strings.Cut(v, " ")
		if !found || name == "" || strings.Contains(valTok, " ") {
			return nil, d.fail(fmt.Sprintf("malformed counter line %q", l))
		}
		if prev != "" && name <= prev {
			return nil, d.fail(fmt.Sprintf("counter %q out of sorted order (after %q)", name, prev))
		}
		prev = name
		val, err := d.uint(valTok, "counter value")
		if err != nil {
			return nil, err
		}
		e.Counters[name] = val
		d.pos++
	}
	// Per-VNet traffic: exactly one line per virtual network, in order.
	for i := range e.Net.VNets {
		l, ok := d.next()
		if !ok {
			return nil, d.fail("truncated entry: missing net line")
		}
		v, isNet := strings.CutPrefix(l, "net ")
		if !isNet {
			return nil, d.fail(fmt.Sprintf("expected net line, got %q", l))
		}
		parts := strings.Split(v, " ")
		if len(parts) != 5 {
			return nil, d.fail(fmt.Sprintf("malformed net line %q", l))
		}
		idx, err := d.uint(parts[0], "net vnet")
		if err != nil {
			return nil, err
		}
		if idx != uint64(i) {
			return nil, d.fail(fmt.Sprintf("net vnet %d out of order (want %d)", idx, i))
		}
		vs := &e.Net.VNets[i]
		for j, dst := range []*uint64{&vs.Packets, &vs.PayloadBytes, &vs.QueueingCycles, &vs.MaxQueueDepth} {
			if *dst, err = d.uint(parts[j+1], "net field"); err != nil {
				return nil, err
			}
		}
		d.pos++
	}
	tok, err = take("netlocal")
	if err != nil {
		return nil, err
	}
	if e.Net.LocalSends, err = d.uint(tok, "netlocal"); err != nil {
		return nil, err
	}
	if l, ok := d.next(); ok {
		return nil, d.fail(fmt.Sprintf("unexpected line %q after netlocal", l))
	}
	return e, nil
}

// CheckMatch compares a cached entry against a freshly simulated one
// (same key) and returns a structured verify *Error naming the first
// divergence — the -cache-verify failure path. Provenance (Origin) and
// the code digest are not compared: the key already pins the code, and
// a witness alias is by construction the same result.
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

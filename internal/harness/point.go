package harness

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strconv"

	"github.com/tempest-sim/tempest/internal/apps/em3d"
	"github.com/tempest-sim/tempest/internal/apps/ocean"
	"github.com/tempest-sim/tempest/internal/machine"
	"github.com/tempest-sim/tempest/internal/resultcache"
	"github.com/tempest-sim/tempest/internal/sim"
	"github.com/tempest-sim/tempest/internal/wiretext"
)

// Point is one serializable sweep point: the machine configuration, the
// target system, the application instance, and any protocol-variant
// knobs, plus execution directives for the executor running it. A Point
// carries everything needed to reproduce the simulation in another
// process or on another host — no closures — which is what lets the
// fleet coordinator lease sweep points to remote workers and verify
// the results against locally computed cache keys.
type Point struct {
	// Cfg is the machine configuration.
	Cfg machine.Config
	// System is the simulated target.
	System System

	// App selection: Bench+Scale+Set name a standard benchmark instance
	// (MakeApp); EM3D or Ocean overrides it with an explicit workload
	// config (at most one may be set). SysUpdate requires EM3D.
	Bench string
	Scale Scale
	Set   DataSet
	EM3D  *em3d.Config
	Ocean *ocean.Config

	// Stache protocol variants (SysStache only). CheckIn runs the em3d
	// check-in app (requires EM3D); StacheMaxPages bounds the per-node
	// stache page budget; StacheMigratory enables the migratory-sharing
	// extension. Each reaches the key through the point's encoding,
	// which omits a zero value, so budget=0 keys like the plain Stache
	// run it is.
	CheckIn         bool
	StacheMaxPages  int
	StacheMigratory bool

	// Execution directives — never part of the result key.

	// NoCache bypasses the result cache for this point: no lookup, no
	// store.
	NoCache bool
	// Inert: kept because benchmark/ names the fields; the `benchmark`-archetype PR deletes them.
	Group     string
	WitnessKB []int
}

// Label names the point in errors and logs.
func (pt Point) Label() string {
	return fmt.Sprintf("%s/%s/%dK", pt.appName(), pt.System, pt.Cfg.CacheSize>>10)
}

// appName resolves the application name without building the app.
func (pt Point) appName() string {
	switch {
	case pt.System == SysUpdate:
		return "em3d-update"
	case pt.CheckIn:
		return "em3d-checkin"
	}
	return pt.workload()
}

// workload names the benchmark the point runs, whichever way it was
// selected.
func (pt Point) workload() string {
	switch {
	case pt.EM3D != nil:
		return "em3d"
	case pt.Ocean != nil:
		return "ocean"
	}
	return pt.Bench
}

// stacheVariant reports whether the point sets a Stache-only knob.
func (pt Point) stacheVariant() bool {
	return pt.CheckIn || pt.StacheMaxPages > 0 || pt.StacheMigratory
}

// Validate rejects points that are wrong on their face, before any
// machine is built, so a fleet coordinator can refuse them at submit
// time: a machine configuration machine.Config.Validate refuses, an
// unknown system, scale or data set, and contradictory app or variant
// selections. What only building the machine can discover — a
// degenerate workload geometry — is the funnel's set-up phase's to
// report (Point.setup).
func (pt Point) Validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("harness: point %s: %s", pt.Label(), fmt.Sprintf(format, args...))
	}
	if err := pt.Cfg.Validate(); err != nil {
		return bad("%v", err)
	}
	switch pt.System {
	case SysDirNNB, SysStache, SysUpdate, SysBlizzard:
	default:
		return bad("unknown system %q", pt.System)
	}
	if pt.EM3D != nil && pt.Ocean != nil {
		return bad("both EM3D and Ocean workload overrides set")
	}
	if pt.System == SysUpdate && pt.EM3D == nil {
		return bad("%s needs an explicit EM3D config", SysUpdate)
	}
	if pt.stacheVariant() && pt.System != SysStache {
		return bad("stache variant knobs need %s, not %s", SysStache, pt.System)
	}
	if pt.CheckIn && pt.EM3D == nil {
		return bad("check-in app needs an explicit EM3D config")
	}
	if pt.StacheMaxPages < 0 {
		return bad("negative stache page budget %d", pt.StacheMaxPages)
	}
	if pt.EM3D == nil && pt.Ocean == nil {
		// A Bench point sizes its workload from Scale and Set; an unknown
		// value must not silently run the reduced small set.
		if !ValidBench(pt.Bench) {
			return bad("unknown benchmark %q", pt.Bench)
		}
		if _, err := ParseScale(string(pt.Scale)); err != nil {
			return bad("%v", err)
		}
		if _, err := ParseDataSet(string(pt.Set)); err != nil {
			return bad("%v", err)
		}
	}
	return nil
}

// canonical is the point spelled one way per simulation, the form
// PointKey hashes: the machine configuration with its defaults applied,
// a by-name em3d or ocean point resolved to its explicit workload config
// (whose name, scale and set are then redundant), and the execution
// directive NoCache cleared. The inert Shards, Group and WitnessKB never
// reach the encoding.
func (pt Point) canonical() Point {
	pt.Cfg = pt.Cfg.Normalized()
	pt.NoCache = false
	if pt.EM3D == nil && pt.Ocean == nil {
		switch pt.Bench {
		case "em3d":
			c := EM3DConfig(pt.Scale, pt.Set)
			pt.EM3D = &c
		case "ocean":
			c := OceanConfig(pt.Scale, pt.Set)
			pt.Ocean = &c
		}
	}
	if pt.EM3D != nil || pt.Ocean != nil {
		pt.Bench, pt.Scale, pt.Set = "", "", ""
	}
	return pt
}

// PointKey computes the point's content address under a code digest:
// the sha256 of the digest and the point's canonical encoding. It is the
// one key derivation — the cache funnel files entries under it and a
// fleet coordinator verifies a remote result's entry against it — and
// it validates the point first.
func PointKey(code string, pt Point) (resultcache.Key, error) {
	if err := pt.Validate(); err != nil {
		return resultcache.Key{}, err
	}
	h := sha256.New()
	h.Write([]byte(code + "\n"))
	h.Write(pt.canonical().Encode())
	var k resultcache.Key
	h.Sum(k[:0])
	return k, nil
}

// CodeID resolves the code digest used for fleet handshakes and point
// keys: the repository source digest, or a fixed sentinel when the
// sources are unavailable (every process on one host then agrees on
// the sentinel; the result cache refuses it in cachedRun).
func CodeID() string {
	if code, err := resultcache.CodeDigest(); err == nil {
		return code
	}
	return "no-source-digest"
}

// pointMagic is the wire-format header; bumping the version makes every
// older coordinator/worker pairing reject the payload instead of
// misreading it.
const pointMagic = "tempest-point v5"

// Encode renders the point's byte form: header, fixed-order lines
// (optional ones omitted when zero), and a trailing sha256 line — the
// same checksummed shape as a result-cache entry, so a corrupted lease
// payload is caught before any simulation runs. The encoding of
// canonical() is what PointKey hashes.
func (pt Point) Encode() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s\n", pointMagic)
	fmt.Fprintf(&b, "cfg %d %d %d %d %d %d %d %d\n",
		pt.Cfg.Nodes, pt.Cfg.CacheSize, pt.Cfg.BlockSize, pt.Cfg.NetLatency,
		pt.Cfg.LinkBytesPerCycle, pt.Cfg.OccupancyCycles, pt.Cfg.Quantum, pt.Cfg.Seed)
	fmt.Fprintf(&b, "system %s\n", pt.System)
	if pt.Bench != "" {
		fmt.Fprintf(&b, "bench %s\n", pt.Bench)
	}
	if pt.Scale != "" {
		fmt.Fprintf(&b, "scale %s\n", pt.Scale)
	}
	if pt.Set != "" {
		fmt.Fprintf(&b, "set %s\n", pt.Set)
	}
	if c := pt.EM3D; c != nil {
		fmt.Fprintf(&b, "em3d %d %d %d %d %d\n", c.TotalNodes, c.Degree, c.PctRemote, c.Iters, c.Seed)
	}
	if c := pt.Ocean; c != nil {
		fmt.Fprintf(&b, "ocean %d %d %s\n", c.N, c.Iters, strconv.FormatBool(c.OwnerPlaced))
	}
	if pt.CheckIn {
		fmt.Fprintf(&b, "checkin true\n")
	}
	if pt.StacheMaxPages != 0 {
		fmt.Fprintf(&b, "stache.max_pages %d\n", pt.StacheMaxPages)
	}
	if pt.StacheMigratory {
		fmt.Fprintf(&b, "stache.migratory true\n")
	}
	if pt.NoCache {
		fmt.Fprintf(&b, "nocache true\n")
	}
	return wiretext.Seal(&b)
}

// DecodePoint parses a canonical point: the field list below over the
// shared reader (DESIGN.md "Text formats"). Decode is total: every
// failure — bad magic, checksum mismatch, malformed or out-of-order
// fields, trailing bytes — is a structured error, never a panic, and a
// valid payload re-encodes byte-identically. Cycle counts and seeds are
// unsigned on the wire, like the sim.Time and uint64 they decode to.
func DecodePoint(data []byte) (Point, error) {
	var pt Point
	r := wiretext.Unseal(data, pointMagic, "point")
	cycles := func() sim.Time { return sim.Time(r.Uint()) }
	c := &pt.Cfg
	r.Line("cfg")
	c.Nodes, c.CacheSize, c.BlockSize, c.NetLatency = r.Int(), r.Int(), r.Int(), cycles()
	c.LinkBytesPerCycle, c.OccupancyCycles, c.Quantum, c.Seed = r.Int(), cycles(), cycles(), r.Uint()
	pt.System = System(r.Line("system").Rest())
	if r.Optional("bench") {
		pt.Bench = r.Rest()
	}
	if r.Optional("scale") {
		pt.Scale = Scale(r.Rest())
	}
	if r.Optional("set") {
		pt.Set = DataSet(r.Rest())
	}
	if r.Optional("em3d") {
		pt.EM3D = &em3d.Config{TotalNodes: r.Int(), Degree: r.Int(), PctRemote: r.Int(), Iters: r.Int(), Seed: r.Uint()}
	}
	if r.Optional("ocean") {
		pt.Ocean = &ocean.Config{N: r.Int(), Iters: r.Int(), OwnerPlaced: r.Bool()}
	}
	// A line the encoder omits at its zero value may not spell the zero.
	flag := func(key string) bool {
		set := r.Optional(key)
		if set && !r.Bool() {
			r.Failf("%s false is not canonical (false is omitted)", key)
		}
		return set
	}
	pt.CheckIn = flag("checkin")
	if r.Optional("stache.max_pages") {
		if pt.StacheMaxPages = r.Int(); pt.StacheMaxPages == 0 {
			r.Failf("stache.max_pages 0 is not canonical (zero is omitted)")
		}
	}
	pt.StacheMigratory = flag("stache.migratory")
	pt.NoCache = flag("nocache")
	r.End()
	if err := r.Err(); err != nil {
		return Point{}, fmt.Errorf("harness: decode point: %v", err)
	}
	return pt, nil
}

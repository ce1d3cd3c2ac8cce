package harness

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"github.com/tempest-sim/tempest/internal/apps/em3d"
	"github.com/tempest-sim/tempest/internal/apps/ocean"
	"github.com/tempest-sim/tempest/internal/machine"
	"github.com/tempest-sim/tempest/internal/resultcache"
	"github.com/tempest-sim/tempest/internal/sim"
)

// Point is one serializable sweep point: the machine configuration, the
// target system, the application instance, and any protocol-variant
// knobs, plus execution directives for the executor running it. A Point
// carries everything needed to reproduce the simulation in another
// process or on another host — no closures — which is what lets the
// fleet coordinator lease sweep points to remote workers and verify
// the results against locally computed cache keys.
type Point struct {
	// Cfg is the machine configuration, the shard count included (it is
	// excluded from the cache key; results are bit-identical for every
	// value).
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
	// extension. Each is a cache-key field; zero values key identically
	// to a plain run (the KeyBuilder drops them), which is exactly the
	// historical sharing: budget=0 is the plain Stache run.
	CheckIn         bool
	StacheMaxPages  int
	StacheMigratory bool

	// Execution directives — never part of the result key.

	// NoCache bypasses the result cache for this point: no lookup, no
	// store, no witness aliases (the -no-dedup path).
	NoCache bool
	// Group names the sequential unit this point belongs to: points
	// sharing a group run in submission order on one worker (the Figure
	// 3 per-(benchmark, system) ascending cache-size order that lets
	// witness aliases serve later points). Empty = independent point.
	Group string
	// WitnessKB lists the larger cache sizes (KB) this point's result
	// provably also holds at if the run evicts nothing; the funnel
	// publishes aliases under their keys (origin "witness:<kb>K").
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
// selections. What only building the machine can discover — a DRAM
// budget the workload does not fit, a degenerate workload geometry —
// is the funnel's set-up phase's to report (Point.setup).
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

// keyParts resolves the cache-key ingredients: the app name, the app's
// workload fields, and the variant extras. Zero-valued extras are
// dropped by the key builder, so a plain point keys identically whether
// the variant fields are listed or not — byte-for-byte the same keys
// every pre-executor sweep computed.
func (pt Point) keyParts() (appName string, appFields, extra []resultcache.Field, err error) {
	switch {
	case pt.System == SysUpdate:
		return "em3d-update", em3dKey(*pt.EM3D), nil, nil
	case pt.CheckIn:
		appName = "em3d-checkin"
		appFields = em3dKey(*pt.EM3D)
	default:
		app, err := pt.makeApp(installed{})
		if err != nil {
			return "", nil, nil, err
		}
		appName = app.Name()
		if appFields, err = appKeyFields(app); err != nil {
			return "", nil, nil, err
		}
	}
	extra = []resultcache.Field{
		resultcache.FBool("app.checkin", pt.CheckIn),
		resultcache.FInt("stache.max_pages", int64(pt.StacheMaxPages)),
		resultcache.FBool("stache.migratory", pt.StacheMigratory),
	}
	return appName, appFields, extra, nil
}

// PointKey computes the point's content address under a code digest —
// the same key the cachedRun funnel uses, exported so a fleet
// coordinator can verify a remote result's entry against an
// independently computed key.
func PointKey(code string, pt Point) (resultcache.Key, error) {
	if err := pt.Validate(); err != nil {
		return resultcache.Key{}, err
	}
	name, appFields, extra, err := pt.keyParts()
	if err != nil {
		return resultcache.Key{}, err
	}
	return runKey(code, pt.Cfg, pt.System, name, appFields, extra), nil
}

// CodeID resolves the code digest used for fleet handshakes and point
// keys: the repository source digest, or the in-memory sentinel when
// the sources are unavailable (every process on one host then agrees on
// the sentinel; persistent caches still refuse it in codeDigestFor).
func CodeID() string {
	if code, err := resultcache.CodeDigest(); err == nil {
		return code
	}
	return "in-memory"
}

// pointMagic is the wire-format header; bumping the version makes every
// older coordinator/worker pairing reject the payload instead of
// misreading it.
const pointMagic = "tempest-point v2"

// Encode renders the point's canonical byte form: header, fixed-order
// lines (optional ones omitted when zero), and a trailing sha256 line —
// the same checksummed shape as a result-cache entry, so a corrupted
// lease payload is caught before any simulation runs.
func (pt Point) Encode() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s\n", pointMagic)
	fmt.Fprintf(&b, "cfg %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d\n",
		pt.Cfg.Nodes, pt.Cfg.CacheSize, pt.Cfg.CacheWays, pt.Cfg.BlockSize, pt.Cfg.TLBEntries,
		pt.Cfg.LocalMissCycles, pt.Cfg.TLBMissCycles, pt.Cfg.NetLatency, pt.Cfg.BarrierLatency,
		pt.Cfg.LinkBytesPerCycle, pt.Cfg.OccupancyCycles, pt.Cfg.MemPagesPerNode, pt.Cfg.Quantum,
		pt.Cfg.Seed, pt.Cfg.Shards)
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
		fmt.Fprintf(&b, "em3d %d %d %d %d %d %d\n",
			c.TotalNodes, c.Degree, c.PctRemote, c.RemoteReuse, c.Iters, c.Seed)
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
	if pt.Group != "" {
		fmt.Fprintf(&b, "group %s\n", pt.Group)
	}
	if len(pt.WitnessKB) > 0 {
		fmt.Fprintf(&b, "witness")
		for _, kb := range pt.WitnessKB {
			fmt.Fprintf(&b, " %d", kb)
		}
		fmt.Fprintf(&b, "\n")
	}
	return resultcache.Seal(&b)
}

// pointDecoder walks the canonical line sequence.
type pointDecoder struct {
	lines []string
	pos   int
}

func (d *pointDecoder) fail(msg string) error {
	return fmt.Errorf("harness: decode point: %s", msg)
}

// peek returns the current line without consuming it.
func (d *pointDecoder) peek() (string, bool) {
	if d.pos >= len(d.lines) {
		return "", false
	}
	return d.lines[d.pos], true
}

// optional consumes "<name> <value>" if the current line carries name.
func (d *pointDecoder) optional(name string) (string, bool) {
	l, ok := d.peek()
	if !ok {
		return "", false
	}
	v, ok := strings.CutPrefix(l, name+" ")
	if !ok || v == "" {
		return "", false
	}
	d.pos++
	return v, true
}

// canonBool parses "true" or "false".
func canonBool(tok string) (bool, error) {
	switch tok {
	case "true":
		return true, nil
	case "false":
		return false, nil
	}
	return false, fmt.Errorf("%q is not a boolean", tok)
}

// DecodePoint parses a canonical point. Decode is total: every failure
// — bad magic, checksum mismatch, malformed or out-of-order fields,
// trailing bytes — is a structured error, never a panic, and a valid
// payload re-encodes byte-identically.
func DecodePoint(data []byte) (Point, error) {
	var pt Point
	d := &pointDecoder{}
	lines, err := resultcache.Unseal(data, pointMagic, "point")
	if err != nil {
		return pt, d.fail(err.Error())
	}
	d.lines = lines

	cfgTok, ok := d.optional("cfg")
	if !ok {
		return pt, d.fail("missing cfg line")
	}
	parts := strings.Split(cfgTok, " ")
	if len(parts) != 15 {
		return pt, d.fail(fmt.Sprintf("cfg line has %d fields, want 15", len(parts)))
	}
	ints := make([]int64, 13)
	for i := range ints {
		v, err := resultcache.CanonInt(parts[i])
		if err != nil {
			return pt, d.fail("cfg: " + err.Error())
		}
		ints[i] = v
	}
	pt.Cfg = machine.Config{
		Nodes: int(ints[0]), CacheSize: int(ints[1]), CacheWays: int(ints[2]),
		BlockSize: int(ints[3]), TLBEntries: int(ints[4]),
		LocalMissCycles: sim.Time(ints[5]), TLBMissCycles: sim.Time(ints[6]),
		NetLatency: sim.Time(ints[7]), BarrierLatency: sim.Time(ints[8]),
		LinkBytesPerCycle: int(ints[9]), OccupancyCycles: sim.Time(ints[10]),
		MemPagesPerNode: int(ints[11]), Quantum: sim.Time(ints[12]),
	}
	seed, err := resultcache.CanonUint(parts[13])
	if err != nil {
		return pt, d.fail("cfg seed: " + err.Error())
	}
	pt.Cfg.Seed = seed
	shards, err := resultcache.CanonInt(parts[14])
	if err != nil {
		return pt, d.fail("cfg shards: " + err.Error())
	}
	pt.Cfg.Shards = int(shards)

	sysTok, ok := d.optional("system")
	if !ok {
		return pt, d.fail("missing system line")
	}
	pt.System = System(sysTok)
	if v, ok := d.optional("bench"); ok {
		pt.Bench = v
	}
	if v, ok := d.optional("scale"); ok {
		pt.Scale = Scale(v)
	}
	if v, ok := d.optional("set"); ok {
		pt.Set = DataSet(v)
	}
	if v, ok := d.optional("em3d"); ok {
		parts := strings.Split(v, " ")
		if len(parts) != 6 {
			return pt, d.fail(fmt.Sprintf("em3d line has %d fields, want 6", len(parts)))
		}
		var c em3d.Config
		vals := make([]int64, 5)
		for i := range vals {
			if vals[i], err = resultcache.CanonInt(parts[i]); err != nil {
				return pt, d.fail("em3d: " + err.Error())
			}
		}
		c.TotalNodes, c.Degree, c.PctRemote = int(vals[0]), int(vals[1]), int(vals[2])
		c.RemoteReuse, c.Iters = int(vals[3]), int(vals[4])
		if c.Seed, err = resultcache.CanonUint(parts[5]); err != nil {
			return pt, d.fail("em3d seed: " + err.Error())
		}
		pt.EM3D = &c
	}
	if v, ok := d.optional("ocean"); ok {
		parts := strings.Split(v, " ")
		if len(parts) != 3 {
			return pt, d.fail(fmt.Sprintf("ocean line has %d fields, want 3", len(parts)))
		}
		var c ocean.Config
		n, err := resultcache.CanonInt(parts[0])
		if err != nil {
			return pt, d.fail("ocean: " + err.Error())
		}
		iters, err := resultcache.CanonInt(parts[1])
		if err != nil {
			return pt, d.fail("ocean: " + err.Error())
		}
		c.N, c.Iters = int(n), int(iters)
		if c.OwnerPlaced, err = canonBool(parts[2]); err != nil {
			return pt, d.fail("ocean owner-placed: " + err.Error())
		}
		pt.Ocean = &c
	}
	boolLine := func(name string, dst *bool) error {
		v, ok := d.optional(name)
		if !ok {
			return nil
		}
		if v != "true" {
			return d.fail(fmt.Sprintf("%s line must be %q, got %q (false is omitted)", name, "true", v))
		}
		*dst = true
		return nil
	}
	if err := boolLine("checkin", &pt.CheckIn); err != nil {
		return pt, err
	}
	if v, ok := d.optional("stache.max_pages"); ok {
		n, err := resultcache.CanonInt(v)
		if err != nil || n == 0 {
			return pt, d.fail("stache.max_pages: non-canonical value")
		}
		pt.StacheMaxPages = int(n)
	}
	if err := boolLine("stache.migratory", &pt.StacheMigratory); err != nil {
		return pt, err
	}
	if err := boolLine("nocache", &pt.NoCache); err != nil {
		return pt, err
	}
	if v, ok := d.optional("group"); ok {
		pt.Group = v
	}
	if v, ok := d.optional("witness"); ok {
		for _, tok := range strings.Split(v, " ") {
			kb, err := resultcache.CanonInt(tok)
			if err != nil || kb <= 0 {
				return pt, d.fail("witness: non-canonical cache size")
			}
			pt.WitnessKB = append(pt.WitnessKB, int(kb))
		}
	}
	if l, ok := d.peek(); ok {
		return pt, d.fail(fmt.Sprintf("unexpected line %q", l))
	}
	return pt, nil
}

package harness

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/tempest-sim/tempest/internal/apps/em3d"
	"github.com/tempest-sim/tempest/internal/apps/ocean"
	"github.com/tempest-sim/tempest/internal/machine"
	"github.com/tempest-sim/tempest/internal/resultcache"
	"github.com/tempest-sim/tempest/internal/sim"
)

// testPoints is a representative spread of the point space: every app
// selection mode, every variant knob, every execution directive.
func testPoints() []Point {
	ecfg := em3d.Tiny()
	ocfg := ocean.Tiny()
	cfg := machine.DefaultConfig()
	cfg.Nodes = 4
	cfg.LinkBytesPerCycle = 4
	cfg.OccupancyCycles = 20
	return []Point{
		{Cfg: cfg, System: SysDirNNB, Bench: "ocean", Scale: ScaleReduced, Set: SetSmall},
		{Cfg: cfg, System: SysStache, Bench: "appbt", Scale: ScalePaper, Set: SetLarge},
		{Cfg: cfg, System: SysStache, EM3D: &ecfg, CheckIn: true},
		{Cfg: cfg, System: SysStache, EM3D: &ecfg, StacheMaxPages: 4},
		{Cfg: cfg, System: SysStache, Bench: "mp3d", Scale: ScaleReduced, Set: SetSmall, StacheMigratory: true},
		{Cfg: cfg, System: SysUpdate, EM3D: &ecfg},
		{Cfg: cfg, System: SysBlizzard, Bench: "em3d", Scale: ScaleReduced, Set: SetSmall, NoCache: true},
		{Cfg: cfg, System: SysDirNNB, Ocean: &ocfg, NoCache: true, Bench: "ocean"},
	}
}

func TestPointEncodeDecodeRoundTrip(t *testing.T) {
	for i, pt := range testPoints() {
		enc := pt.Encode()
		got, err := DecodePoint(enc)
		if err != nil {
			t.Fatalf("point %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, pt) {
			t.Errorf("point %d: round trip changed the point:\n%+v\n%+v", i, pt, got)
		}
		if re := got.Encode(); !bytes.Equal(re, enc) {
			t.Errorf("point %d: re-encode is not byte-identical", i)
		}
	}
}

func TestDecodePointRejectsCorruption(t *testing.T) {
	enc := testPoints()[1].Encode()
	cases := map[string][]byte{
		"empty":      {},
		"no newline": enc[:len(enc)-1],
		"truncated":  enc[:len(enc)/2],
		"bad magic":  []byte("tempest-nonsense v1\nsum 00\n"),
	}
	// A genuine version skew arrives checksum-valid: the sender summed
	// its own (newer) encoding.
	body := enc[:bytes.LastIndex(enc[:len(enc)-1], []byte("\n"))+1]
	skew := bytes.Replace(body, []byte(pointMagic), []byte("tempest-point v9"), 1)
	cases["version skew"] = withSum(skew)
	flipped := append([]byte(nil), enc...)
	flipped[len(pointMagic+"\ncfg ")] ^= 0x01
	cases["flipped byte"] = flipped
	// The retired group line: v3 senders wrote it, so an old payload is
	// checksum-valid under the current magic.
	cases["group line"] = withSum(append(body[:len(body):len(body)], "group fig3/appbt/typhoon-stache\n"...))
	for name, data := range cases {
		if _, err := DecodePoint(data); err == nil {
			t.Errorf("%s: corrupt point decoded without error", name)
		} else if !strings.Contains(err.Error(), "harness: decode point") {
			t.Errorf("%s: error is not structured: %v", name, err)
		}
	}
	// Version skew must be named as such, so a mixed-version fleet fails
	// with a diagnosis rather than a generic parse error.
	if _, err := DecodePoint(cases["version skew"]); err == nil || !strings.Contains(err.Error(), "version skew") {
		t.Errorf("version skew not diagnosed: %v", err)
	}
	want := `point line 7: unexpected line "group fig3/appbt/typhoon-stache"`
	if _, err := DecodePoint(cases["group line"]); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("group line: err = %v, want %q", err, want)
	}
}

// withSum appends the checksum line a sender would compute over body.
func withSum(body []byte) []byte {
	sum := sha256.Sum256(body)
	return append(body[:len(body):len(body)], []byte("sum "+hex.EncodeToString(sum[:])+"\n")...)
}

// v1Payload is a well-formed point as a v1 sender encodes it.
func v1Payload() []byte {
	return withSum([]byte("tempest-point v1\n" +
		"cfg 8 4096 4 32 64 29 25 11 11 0 0 0 0 1 false 1 false\n" +
		"system typhoon-stache\nbench ocean\nscale reduced\nset small\n"))
}

// v3Payload is a well-formed point as a v3 sender encodes it: a 14-field
// cfg line whose 12th field is the per-node DRAM budget v4 dropped.
func v3Payload() []byte {
	return withSum([]byte("tempest-point v3\n" +
		"cfg 4 8192 4 32 64 29 25 11 11 0 0 0 0 1\n" +
		"system typhoon-stache\nbench ocean\nscale reduced\nset small\n"))
}

// v4Payload is a well-formed point as a v4 sender encodes it: a 13-field
// cfg line carrying the ways, TLB entries, local miss, TLB miss and
// barrier latency v5 made constants, and a 6-field em3d line whose 4th
// field is the remote reuse v5 made a constant.
func v4Payload() []byte {
	return withSum([]byte("tempest-point v4\n" +
		"cfg 4 8192 4 32 64 29 25 11 11 0 0 0 1\n" +
		"system typhoon-stache\nem3d 512 4 30 0 3 1\n"))
}

// TestDecodePointV1IsVersionSkew feeds the decoder a well-formed point
// as a v1 sender encodes it (17-field cfg line with the two mode
// booleans), as a v2 sender does (15 fields, the shard count last), as
// a v3 sender does (14 fields, the DRAM budget 12th) and as a v4 sender
// does (13 fields, five of them Table 2 constants): a worker or
// coordinator left on an old format must be told so, not handed a
// field-count parse error. The v2 cfg line under the current magic is a
// parse error, and names its line.
func TestDecodePointV1IsVersionSkew(t *testing.T) {
	for name, payload := range map[string][]byte{"v1": v1Payload(), "v2": shardsTokenPayload("tempest-point v2"),
		"v3": v3Payload(), "v4": v4Payload()} {
		_, err := DecodePoint(payload)
		if err == nil || !strings.Contains(err.Error(), "version skew") || !strings.Contains(err.Error(), pointMagic) {
			t.Fatalf("%s payload: err = %v, want a version-skew error naming %q", name, err, pointMagic)
		}
	}
	_, err := DecodePoint(shardsTokenPayload(pointMagic))
	if err == nil || !strings.Contains(err.Error(), "point line 2: malformed cfg line") {
		t.Fatalf("15-token cfg line: err = %v, want a parse error naming line 2", err)
	}
}

// TestRunPointRejectsBadMachineConfig is the wire-to-panic regression: a
// checksum-valid point whose machine config machine.New would panic on
// (one bad lease payload used to kill a fleet worker) must come back
// from decode + RunPoint as a structured error naming the point.
func TestRunPointRejectsBadMachineConfig(t *testing.T) {
	good := Point{Cfg: MachineConfig(ScaleReduced, 4<<10), System: SysStache,
		Bench: "ocean", Scale: ScaleReduced, Set: SetSmall, NoCache: true}
	for name, mutate := range map[string]func(*machine.Config){
		"block size 48":    func(c *machine.Config) { c.BlockSize = 48 },
		"negative nodes":   func(c *machine.Config) { c.Nodes = -4 },
		"negative link bw": func(c *machine.Config) { c.LinkBytesPerCycle = -1 },
		// A cycle count of 2^64−1 is −1 on wrapped arithmetic: it used to
		// run to a verified result (or the engine's deadlock report) when
		// built in process, and to fail decode when sent over the wire.
		"wrapped net latency":     func(c *machine.Config) { c.NetLatency = ^sim.Time(0) },
		"wrapped occupancy":       func(c *machine.Config) { c.OccupancyCycles = ^sim.Time(0) },
		"quantum above the bound": func(c *machine.Config) { c.Quantum = machine.MaxCycles + 1 },
		// Geometry machine.New allocates from: these used to reach make,
		// where a refusal is an OOM kill, not a panic setup recovers.
		"a trillion nodes": func(c *machine.Config) { c.Nodes = 1 << 40 },
		"a petabyte cache": func(c *machine.Config) { c.CacheSize = 1 << 50 },
	} {
		pt := good
		mutate(&pt.Cfg)
		decoded, err := DecodePoint(pt.Encode())
		if err != nil {
			t.Fatalf("%s: the wire form itself is well-formed, decode failed: %v", name, err)
		}
		_, err = RunPoint(CacheParams{}, decoded)
		if err == nil || !strings.HasPrefix(err.Error(), "harness: point "+pt.Label()+": ") {
			t.Errorf("%s: RunPoint err = %v, want a harness: point %s: … error", name, err, pt.Label())
		}
	}
}

func TestPointValidate(t *testing.T) {
	ecfg := em3d.Tiny()
	ocfg := ocean.Tiny()
	cfg := machine.DefaultConfig()
	bad := []Point{
		{Cfg: cfg, System: "nonsense", Bench: "ocean"},
		{Cfg: cfg, System: SysStache, EM3D: &ecfg, Ocean: &ocfg},
		{Cfg: cfg, System: SysUpdate, Bench: "em3d"},
		{Cfg: cfg, System: SysDirNNB, Bench: "ocean", StacheMigratory: true},
		{Cfg: cfg, System: SysStache, Bench: "em3d", CheckIn: true},
		{Cfg: cfg, System: SysStache, EM3D: &ecfg, StacheMaxPages: -1},
		{Cfg: cfg, System: SysStache, Bench: "ocean", Scale: "huge", Set: SetSmall},
		{Cfg: cfg, System: SysStache, Bench: "ocean", Scale: ScaleReduced, Set: "medium"},
		{Cfg: cfg, System: SysStache, Bench: "nope", Scale: ScaleReduced, Set: SetSmall},
	}
	for i, pt := range bad {
		if err := pt.Validate(); err == nil {
			t.Errorf("bad point %d validated: %+v", i, pt)
		}
	}
	for i, pt := range testPoints() {
		if err := pt.Validate(); err != nil {
			t.Errorf("good point %d rejected: %v", i, err)
		}
	}
}

// TestPointKeyVariantCompat pins what the one key derivation, the hash
// of the point's canonical encoding, sees. Spellings of one simulation
// key alike, so entries recorded by any sweep serve every other: a
// by-name em3d or ocean point and its explicit config, a zero machine
// field and its Table 2 default, and a point with or without the
// execution directive and the inert fields. Every workload field, every
// Stache variant and the code digest move the key.
func TestPointKeyVariantCompat(t *testing.T) {
	key := func(code string, pt Point) resultcache.Key {
		t.Helper()
		k, err := PointKey(code, pt)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	cfg := MachineConfig(ScaleReduced, 4<<10)
	for _, scale := range []Scale{ScaleReduced, ScalePaper} {
		for _, set := range []DataSet{SetSmall, SetLarge} {
			ecfg, ocfg := EM3DConfig(scale, set), OceanConfig(scale, set)
			for bench, explicit := range map[string]Point{
				"em3d":  {Cfg: cfg, System: SysDirNNB, EM3D: &ecfg},
				"ocean": {Cfg: cfg, System: SysDirNNB, Ocean: &ocfg},
			} {
				byName := Point{Cfg: cfg, System: SysDirNNB, Bench: bench, Scale: scale, Set: set}
				if key("code", byName) != key("code", explicit) {
					t.Errorf("%s %s/%s by name keys unlike its explicit config", bench, scale, set)
				}
			}
		}
	}

	ecfg, ocfg := em3d.Tiny(), ocean.Tiny()
	base := Point{Cfg: machine.DefaultConfig(), System: SysStache, EM3D: &ecfg}
	baseKey := key("code", base)
	if key("other", base) == baseKey {
		t.Error("the code digest does not move the key")
	}
	for name, mutate := range map[string]func(*Point){
		"NoCache":   func(p *Point) { p.NoCache = true },
		"Shards":    func(p *Point) { p.Cfg.Shards = 4 },
		"Group":     func(p *Point) { p.Group = "fig3/em3d" },
		"WitnessKB": func(p *Point) { p.WitnessKB = []int{16, 64} },
		// A by-name selection beside an explicit config names nothing.
		"bench beside EM3D": func(p *Point) { p.Bench, p.Scale, p.Set = "ocean", ScalePaper, SetLarge },
	} {
		pt := base
		mutate(&pt)
		if key("code", pt) != baseKey {
			t.Errorf("%s moved the key", name)
		}
	}
	def := reflect.ValueOf(base.Cfg)
	for i := 0; i < def.NumField(); i++ {
		if def.Field(i).IsZero() {
			continue
		}
		pt := base
		reflect.ValueOf(&pt.Cfg).Elem().Field(i).SetZero()
		if key("code", pt) != baseKey {
			t.Errorf("a zero machine.Config.%s keys unlike its Table 2 default", def.Type().Field(i).Name)
		}
	}

	// moves requires bumping each field of the workload config w, which
	// pt runs, to move pt's key.
	moves := func(pt Point, w any) {
		t.Helper()
		before := key("code", pt)
		v := reflect.ValueOf(w).Elem()
		for i := 0; i < v.NumField(); i++ {
			f, was := v.Field(i), v.Field(i).Interface()
			switch f.Kind() {
			case reflect.Int:
				f.SetInt(f.Int() + 1)
			case reflect.Uint64:
				f.SetUint(f.Uint() + 1)
			case reflect.Bool:
				f.SetBool(!f.Bool())
			default:
				t.Fatalf("%s.%s has kind %s: teach this test to move it", v.Type(), v.Type().Field(i).Name, f.Kind())
			}
			if key("code", pt) == before {
				t.Errorf("%s.%s does not move the key", v.Type(), v.Type().Field(i).Name)
			}
			f.Set(reflect.ValueOf(was))
		}
	}
	moves(base, &ecfg)
	moves(Point{Cfg: base.Cfg, System: SysStache, Ocean: &ocfg}, &ocfg)

	for name, mutate := range map[string]func(*Point){
		"CheckIn":         func(p *Point) { p.CheckIn = true },
		"StacheMaxPages":  func(p *Point) { p.StacheMaxPages = 4 },
		"StacheMigratory": func(p *Point) { p.StacheMigratory = true },
	} {
		pt := base
		mutate(&pt)
		if key("code", pt) == baseKey {
			t.Errorf("Stache variant %s does not move the key", name)
		}
	}
}

// TestPointKeyQuantumDefault: a machine run at Quantum 0 runs at
// sim.DefaultQuantum, so the two spellings of that one simulation key
// alike, and a different quantum keys apart.
func TestPointKeyQuantumDefault(t *testing.T) {
	ecfg := em3d.Tiny()
	key := func(q sim.Time) resultcache.Key {
		t.Helper()
		pt := Point{Cfg: MachineConfig(ScaleReduced, 4<<10), System: SysStache, EM3D: &ecfg}
		pt.Cfg.Quantum = q
		k, err := PointKey("code", pt)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	if key(0) != key(sim.DefaultQuantum) {
		t.Errorf("Quantum 0 keys unlike Quantum %d, the quantum it runs at", sim.DefaultQuantum)
	}
	if q := 2 * sim.DefaultQuantum; key(q) == key(0) {
		t.Errorf("Quantum %d keys like the default", q)
	}
}

// TestRunAllAggregatesSlowSecondFailure: a second, slower failure with
// a distinct error is joined into the pool's returned error instead of
// being silently dropped.
func TestRunAllAggregatesSlowSecondFailure(t *testing.T) {
	first := errors.New("first failure")
	second := errors.New("second slow failure")
	started := make(chan struct{})
	jobs := []job[int]{
		func(_ context.Context) (int, error) {
			<-started // fail only once the slow job is in flight
			return 0, first
		},
		func(ctx context.Context) (int, error) {
			close(started)
			<-ctx.Done() // observe the fail-fast cancellation...
			time.Sleep(20 * time.Millisecond)
			return 0, second // ...and still fail late with a distinct error
		},
	}
	_, err := runPool(context.Background(), jobs, 2)
	if !errors.Is(err, first) {
		t.Fatalf("first failure lost: %v", err)
	}
	if !errors.Is(err, second) {
		t.Fatalf("slow second failure lost: %v", err)
	}
	if err.Error() != "first failure\nsecond slow failure" {
		t.Errorf("joined error %q, want both jobs' own texts, lowest index first", err)
	}
}

// TestLocalExecutorPointTimeoutNamesPoint drives the timeout through a
// real executor batch: the structured error carries the sweep point's
// own label.
func TestLocalExecutorPointTimeoutNamesPoint(t *testing.T) {
	ecfg := em3d.Tiny()
	cfg := machine.DefaultConfig()
	cfg.Nodes = 4
	pt := Point{Cfg: cfg, System: SysStache, EM3D: &ecfg, NoCache: true}
	_, err := LocalExecutor{Workers: 1}.Submit(context.Background(), Batch{
		Points:       []Point{pt},
		PointTimeout: time.Nanosecond,
	})
	var pte *PointTimeoutError
	if !errors.As(err, &pte) {
		t.Fatalf("err = %v, want *PointTimeoutError", err)
	}
	if pte.Point != pt.Label() {
		t.Errorf("timeout names %q, want %q", pte.Point, pt.Label())
	}
}

// TestLocalExecutorMatchesDirectRuns pins the refactor's core claim:
// submitting points through the executor returns exactly what the
// pre-executor harness produced for the same configurations.
func TestLocalExecutorMatchesDirectRuns(t *testing.T) {
	cfg := MachineConfig(ScaleReduced, 4<<10)
	pts := []Point{
		{Cfg: cfg, System: SysDirNNB, Bench: "ocean", Scale: ScaleReduced, Set: SetSmall},
		{Cfg: cfg, System: SysStache, Bench: "ocean", Scale: ScaleReduced, Set: SetSmall},
	}
	got, err := LocalExecutor{Workers: 2}.Submit(context.Background(), Batch{Points: pts})
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range pts {
		app, err := MakeApp(pt.Bench, pt.Scale, pt.Set)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Point{Cfg: pt.Cfg, System: pt.System, Bench: app.Name()}.run(app)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i].RunResult, want) {
			t.Errorf("point %d: executor result differs from direct Run", i)
		}
	}
}

// TestShardsFieldIsInert pins what is left of machine.Config.Shards: a
// name benchmark/ still sets (SimParams.Apply copies it) and nothing
// reads. One reduced point at three values keys, encodes and simulates
// identically, engine.* dispatch counters included, so the benchmark's
// `sharded` workload stays a true, if redundant, check until it is
// retired.
func TestShardsFieldIsInert(t *testing.T) {
	at := func(shards int) Point {
		cfg := MachineConfig(ScaleReduced, 4<<10)
		SimParams{Shards: shards}.Apply(&cfg)
		if cfg.Shards != shards {
			t.Fatalf("SimParams.Apply left Cfg.Shards = %d, want %d", cfg.Shards, shards)
		}
		return Point{Cfg: cfg, System: SysStache, Bench: "em3d", Scale: ScaleReduced, Set: SetSmall}
	}
	base := at(0)
	baseKey, err := PointKey("code", base)
	if err != nil {
		t.Fatal(err)
	}
	baseRun, err := base.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if baseRun.Res.Counters.Get("engine.inline_steps") == 0 {
		t.Fatal("the run reports no engine.* counters; the comparison below would be vacuous")
	}
	for _, shards := range []int{2, 8} {
		pt := at(shards)
		if key, err := PointKey("code", pt); err != nil || key != baseKey {
			t.Errorf("shards=%d: key %s (err %v), want %s", shards, key, err, baseKey)
		}
		if !bytes.Equal(pt.Encode(), base.Encode()) {
			t.Errorf("shards=%d: the field reached the wire:\n%s", shards, pt.Encode())
		}
		run, err := pt.Simulate()
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !reflect.DeepEqual(run, baseRun) {
			t.Errorf("shards=%d: result differs from shards=0:\n%+v\n%+v", shards, run.Res, baseRun.Res)
		}
	}
}

// TestGroupAndWitnessFieldsAreInert pins what is left of Point.Group and
// Point.WitnessKB: names benchmark/ still sets and nothing reads. Either
// field set keys, encodes and simulates like the plain point.
func TestGroupAndWitnessFieldsAreInert(t *testing.T) {
	ecfg := em3d.Tiny()
	cfg := machine.DefaultConfig()
	cfg.Nodes = 4
	base := Point{Cfg: cfg, System: SysStache, EM3D: &ecfg}
	baseKey, err := PointKey("code", base)
	if err != nil {
		t.Fatal(err)
	}
	baseRun, err := base.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	grouped, witnessed := base, base
	grouped.Group = "fig3/em3d/typhoon-stache"
	witnessed.WitnessKB = []int{16, 64}
	for name, pt := range map[string]Point{"group": grouped, "witness": witnessed} {
		if key, err := PointKey("code", pt); err != nil || key != baseKey {
			t.Errorf("%s: key %s (err %v), want %s", name, key, err, baseKey)
		}
		if !bytes.Equal(pt.Encode(), base.Encode()) {
			t.Errorf("%s: the field reached the wire:\n%s", name, pt.Encode())
		}
		run, err := pt.Simulate()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(run, baseRun) {
			t.Errorf("%s: result differs from the plain point:\n%+v\n%+v", name, run.Res, baseRun.Res)
		}
	}
}

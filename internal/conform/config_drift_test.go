package conform

import (
	"reflect"
	"testing"

	"github.com/tempest-sim/tempest/internal/harness"
	"github.com/tempest-sim/tempest/internal/machine"
)

// TestMachineConfigFieldsReachEveryEnumeration guards the places that
// write out machine.Config's field list by hand — the cache key
// (harness.machineKey), the point wire's cfg line (Point.Encode /
// DecodePoint) and the stream header (Stream.Encode / Decode). It walks
// the struct by reflection, so a field added to Config and forgotten in
// one of them fails here instead of silently aliasing cache entries or
// dropping off the wire. A field deliberately left out of an
// enumeration is named below, with the reason.
func TestMachineConfigFieldsReachEveryEnumeration(t *testing.T) {
	// Not in the cache key: results are bit-identical at every value.
	notKeyed := map[string]bool{"Shards": true}
	// Not in a conformance stream: no corpus pair sets the first two, and
	// the shard count is the replayer's choice, not the recording's.
	notInStream := map[string]bool{"MemPagesPerNode": true, "Quantum": true, "Shards": true}

	base := Pair{App: "em3d", System: harness.SysStache}.Point(1)
	baseKey, err := harness.PointKey("code", base)
	if err != nil {
		t.Fatal(err)
	}
	typ := reflect.TypeOf(base.Cfg)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		pt := base
		f := reflect.ValueOf(&pt.Cfg).Elem().Field(i)
		// Doubling (2 from zero) is distinct from the base and from the
		// default, and keeps every geometry rule Validate checks.
		switch f.Kind() {
		case reflect.Int:
			f.SetInt(max(2*f.Int(), 2))
		case reflect.Uint64:
			f.SetUint(max(2*f.Uint(), 2))
		default:
			t.Fatalf("machine.Config.%s has kind %s: teach this test (and the three enumerations) to carry it", name, f.Kind())
		}
		want := f.Interface()
		field := func(c machine.Config) any { return reflect.ValueOf(c).Field(i).Interface() }

		key, err := harness.PointKey("code", pt)
		if err != nil {
			t.Fatalf("%s = %v: %v", name, want, err)
		}
		if changed := key != baseKey; changed == notKeyed[name] {
			t.Errorf("%s = %v: cache key changed = %v, want %v (harness.machineKey)", name, want, changed, !notKeyed[name])
		}

		decoded, err := harness.DecodePoint(pt.Encode())
		if err != nil {
			t.Fatalf("%s = %v: %v", name, want, err)
		}
		if got := field(decoded.Cfg); got != want {
			t.Errorf("%s = %v came off the point wire as %v (Point.Encode / DecodePoint)", name, want, got)
		}

		s := seedStream()
		s.Cfg = pt.Cfg
		s.Obs = make([]ObsRow, pt.Cfg.Nodes)
		for n := range s.Obs {
			s.Obs[n].Node = n
		}
		rs, err := Decode(s.Encode())
		if err != nil {
			t.Fatalf("%s = %v: %v", name, want, err)
		}
		if notInStream[name] {
			want = reflect.Zero(f.Type()).Interface()
		}
		if got := field(rs.Cfg); got != want {
			t.Errorf("%s: stream header carried %v, want %v (Stream.Encode / Decode)", name, got, want)
		}
	}
}

package conform

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/tempest-sim/tempest/internal/harness"
	"github.com/tempest-sim/tempest/internal/machine"
)

// TestMachineConfigFieldsReachEveryEnumeration guards the two places
// that write out machine.Config's field list by hand — the point's cfg
// line (Point.Encode / DecodePoint, which the cache key hashes) and the
// stream header (Stream.Encode). It walks the struct by reflection, so a
// field added to Config and forgotten in one of them fails here instead
// of silently aliasing cache entries or dropping off the wire. A field
// deliberately left out of an enumeration is named below, with the
// reason.
func TestMachineConfigFieldsReachEveryEnumeration(t *testing.T) {
	// Read by nothing (machine.Config.Shards says why it still exists):
	// must be absent from the key and both enumerations.
	inert := map[string]bool{"Shards": true}
	// Not in a conformance stream: no corpus pair sets it.
	notInStream := map[string]bool{"Quantum": true}

	base := Pair{App: "em3d", System: harness.SysStache}.Point()
	baseKey, err := harness.PointKey("code", base)
	if err != nil {
		t.Fatal(err)
	}
	baseHeader := (&Stream{Cfg: base.Cfg}).Encode()
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
			t.Fatalf("machine.Config.%s has kind %s: teach this test (and both enumerations) to carry it", name, f.Kind())
		}
		want := f.Interface()
		field := func(c machine.Config) any { return reflect.ValueOf(c).Field(i).Interface() }

		key, err := harness.PointKey("code", pt)
		if err != nil {
			t.Fatalf("%s = %v: %v", name, want, err)
		}
		if changed := key != baseKey; changed == inert[name] {
			t.Errorf("%s = %v: cache key changed = %v, want %v (harness.PointKey via Point.Encode)", name, want, changed, !inert[name])
		}

		decoded, err := harness.DecodePoint(pt.Encode())
		if err != nil {
			t.Fatalf("%s = %v: %v", name, want, err)
		}
		zero := reflect.Zero(f.Type()).Interface()
		if inert[name] {
			want = zero
		}
		if got := field(decoded.Cfg); got != want {
			t.Errorf("%s: came off the point wire as %v, want %v (Point.Encode / DecodePoint)", name, got, want)
		}

		header := (&Stream{Cfg: pt.Cfg}).Encode()
		if changed := !bytes.Equal(header, baseHeader); changed == (inert[name] || notInStream[name]) {
			t.Errorf("%s = %v: stream header changed = %v, want %v (Stream.Encode)",
				name, f.Interface(), changed, !changed)
		}
	}
}

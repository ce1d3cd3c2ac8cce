package resultcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/tempest-sim/tempest/internal/network"
)

// sampleEntry builds a representative entry: several counters and
// non-zero traffic on both virtual networks.
func sampleEntry() *Entry {
	var net network.Stats
	net.VNets[0] = network.VNetStats{Packets: 120, PayloadBytes: 4096, QueueingCycles: 7, MaxQueueDepth: 3}
	net.VNets[1] = network.VNetStats{Packets: 118, PayloadBytes: 9000, MaxQueueDepth: 2}
	net.LocalSends = 31
	return &Entry{
		Key:    keyOf("typhoon-stache", "ocean", "8"),
		Code:   "0123456789abcdef",
		System: "typhoon-stache",
		App:    "ocean",
		Cycles: 138926,
		ROI:    86416,
		Counters: map[string]uint64{
			"cpu.reads":   1000,
			"cpu.writes":  500,
			"net.packets": 238,
		},
		Net: net,
	}
}

// resign recomputes the checksum footer after a deliberate payload
// mutation, so canonical-form violations are tested on their own merits
// rather than being masked by the checksum gate.
func resign(t *testing.T, data []byte) []byte {
	t.Helper()
	body := strings.TrimSuffix(string(data), "\n")
	cut := strings.LastIndex(body, "\n")
	if cut < 0 || !strings.HasPrefix(body[cut+1:], "sum ") {
		t.Fatalf("resign: no sum footer in %q", body)
	}
	payload := data[:cut+1]
	sum := sha256.Sum256(payload)
	return append(payload, []byte("sum "+hex.EncodeToString(sum[:])+"\n")...)
}

func TestEntryRoundTrip(t *testing.T) {
	for _, origin := range []string{"", "witness:64K"} {
		e := sampleEntry()
		e.Origin = origin
		data := e.Encode()
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("origin=%q: Decode: %v", origin, err)
		}
		if !reflect.DeepEqual(got, e) {
			t.Errorf("origin=%q: round trip diverged:\n got %+v\nwant %+v", origin, got, e)
		}
		// Decode rejects every non-canonical byte, so decode→re-encode
		// must be the identity.
		if re := got.Encode(); !bytes.Equal(re, data) {
			t.Errorf("origin=%q: re-encode is not the identity:\n got %q\nwant %q", origin, re, data)
		}
	}
}

func TestEntryRoundTripMinimal(t *testing.T) {
	e := &Entry{
		Key:      keyOf(),
		Code:     "in-memory",
		System:   "dirnnb",
		App:      "appbt",
		Counters: map[string]uint64{},
	}
	got, err := Decode(e.Encode())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got, e) {
		t.Errorf("minimal round trip diverged:\n got %+v\nwant %+v", got, e)
	}
}

// decodeErr asserts the decode failed with a structured *Error carrying
// Op "decode" and the given message fragment — the contract that lets
// Cache.Get fall back to simulation instead of panicking.
func decodeErr(t *testing.T, data []byte, wantMsg string) {
	t.Helper()
	e, err := Decode(data)
	if err == nil {
		t.Fatalf("Decode succeeded (%+v), want error containing %q", e, wantMsg)
	}
	var re *Error
	if !errors.As(err, &re) {
		t.Fatalf("Decode error %T is not a *resultcache.Error: %v", err, err)
	}
	if re.Op != "decode" {
		t.Errorf("error Op = %q, want \"decode\" (%v)", re.Op, re)
	}
	if !strings.Contains(re.Msg, wantMsg) {
		t.Errorf("error %q does not mention %q", re.Msg, wantMsg)
	}
}

func TestDecodeDamageClassification(t *testing.T) {
	valid := sampleEntry().Encode()

	t.Run("corrupt-flipped-byte", func(t *testing.T) {
		data := bytes.Replace(valid, []byte("cycles 138926"), []byte("cycles 138927"), 1)
		decodeErr(t, data, "checksum mismatch")
	})
	t.Run("truncated-mid-entry", func(t *testing.T) {
		decodeErr(t, valid[:len(valid)/2], "truncated entry")
	})
	t.Run("truncated-no-final-newline", func(t *testing.T) {
		decodeErr(t, valid[:len(valid)-1], "truncated entry")
	})
	t.Run("version-skew-future-format", func(t *testing.T) {
		// A future format shares the name prefix but nothing else.
		decodeErr(t, []byte("tempest-resultcache v2\nopaque future payload\n"), "version skew")
	})
	t.Run("version-skew-signed", func(t *testing.T) {
		data := resign(t, bytes.Replace(valid, []byte(entryMagic+"\n"), []byte("tempest-resultcache v0\n"), 1))
		decodeErr(t, data, "version skew")
	})
	t.Run("empty", func(t *testing.T) {
		decodeErr(t, nil, "empty entry")
	})
	t.Run("bad-magic", func(t *testing.T) {
		decodeErr(t, []byte("not a cache file\n"), "bad magic")
	})
}

func TestDecodeRejectsNonCanonicalForms(t *testing.T) {
	valid := sampleEntry().Encode()
	mutate := func(old, new string) []byte {
		data := bytes.Replace(valid, []byte(old), []byte(new), 1)
		if bytes.Equal(data, valid) {
			t.Fatalf("mutation %q -> %q did not apply", old, new)
		}
		return resign(t, data)
	}

	cases := []struct {
		name, old, new, wantMsg string
	}{
		{"leading-zero-uint", "cycles 138926", "cycles 0138926", "not a canonical unsigned integer"},
		{"signed-uint", "roi 86416", "roi +86416", "not a canonical unsigned integer"},
		{"obs-refused", "roi 86416\n", "roi 86416\nobs 0 1 2\n", `expected "net" line, got "obs`},
		{"counter-out-of-order", "counter cpu.writes 500", "counter cpu.aaa 500", "out of sorted order"},
		{"net-vnet-out-of-order", "net 1 118", "net 0 118", "out of order"},
		{"empty-origin", "app ocean\ncycles", "app ocean\norigin \ncycles", "empty origin"},
		{"trailing-line", "netlocal 31\n", "netlocal 31\nextra junk\n", "unexpected line"},
		{"missing-netlocal", "netlocal 31\n", "", "missing \"netlocal\" line"},
		{"malformed-counter", "counter net.packets 238", "counter net.packets 2 38", "malformed counter line"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			decodeErr(t, mutate(tc.old, tc.new), tc.wantMsg)
		})
	}
}

// An empty value has no spelling: Encode writes "code \n" for an entry
// built without one, and Decode refuses it like any other empty line
// rather than accept a field no producer writes.
func TestDecodeRefusesEmptyIdentityField(t *testing.T) {
	for _, field := range []string{"code", "system", "app"} {
		e := sampleEntry()
		switch field {
		case "code":
			e.Code = ""
		case "system":
			e.System = ""
		case "app":
			e.App = ""
		}
		decodeErr(t, e.Encode(), "empty "+field+" line")
	}
}

func TestErrorString(t *testing.T) {
	err := &Error{Op: "decode", Path: "/tmp/x.entry", Msg: "checksum mismatch"}
	want := "resultcache: decode /tmp/x.entry: checksum mismatch"
	if got := err.Error(); got != want {
		t.Errorf("Error() = %q, want %q", got, want)
	}
	if got := fmt.Sprint(&Error{Op: "write", Msg: "no cache directory given"}); !strings.Contains(got, "write") {
		t.Errorf("pathless error %q missing op", got)
	}
}

package resultcache

import (
	"encoding/hex"
	"fmt"
)

// A Key is the content address of one simulation result: a sha256 over
// the code digest of the simulator sources and the run's canonical input.
// The harness derives it (harness.PointKey hashes the sweep point's
// canonical encoding); this package only files and finds entries by it.
// Two runs with the same key are the same pure function applied to the
// same inputs, so their results are interchangeable.
type Key [32]byte

// String renders the key as lowercase hex — the on-disk file name.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// ParseKey decodes a 64-character lowercase-hex key.
func ParseKey(s string) (Key, error) {
	var k Key
	if len(s) != 64 {
		return Key{}, &Error{Op: "decode", Msg: fmt.Sprintf("key %q is not 64 hex characters", s)}
	}
	raw, err := hex.DecodeString(s)
	if err != nil {
		return Key{}, &Error{Op: "decode", Msg: fmt.Sprintf("key %q: %v", s, err)}
	}
	if hex.EncodeToString(raw) != s {
		return Key{}, &Error{Op: "decode", Msg: fmt.Sprintf("key %q is not canonical lowercase hex", s)}
	}
	copy(k[:], raw)
	return k, nil
}

package resultcache

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzCacheEntry feeds Decode arbitrary bytes and requires the decode
// contract that Cache.Get's fallback depends on: every input either
// decodes to an entry whose re-encoding is byte-identical (canonical
// form is unique) or fails with a structured *Error — never a panic,
// never a silently lossy parse.
func FuzzCacheEntry(f *testing.F) {
	valid := sampleEntry().Encode()
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)/2])                                        // truncated
	f.Add([]byte("tempest-resultcache v99\nx\n"))                      // version skew
	f.Add([]byte("not a cache entry\n"))                               // bad magic
	f.Add(bytes.Replace(valid, []byte("cycles"), []byte("cYcles"), 1)) // checksum break
	minimal := (&Entry{Key: keyOf(), Code: "in-memory", System: "s", App: "a", Counters: map[string]uint64{}}).Encode()
	f.Add(minimal)
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := Decode(data)
		if err != nil {
			var re *Error
			if !errors.As(err, &re) {
				t.Fatalf("Decode error %T is not a *resultcache.Error: %v", err, err)
			}
			if re.Op != "decode" || re.Msg == "" {
				t.Fatalf("malformed decode error: %+v", re)
			}
			return
		}
		if re := e.Encode(); !bytes.Equal(re, data) {
			t.Fatalf("accepted non-canonical input:\n in  %q\n out %q", data, re)
		}
	})
}

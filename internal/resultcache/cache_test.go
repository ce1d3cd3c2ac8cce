package resultcache

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// entryForKey builds a distinct valid entry stored under a key derived
// from id.
func entryForKey(id int) *Entry {
	e := sampleEntry()
	e.Key = keyOf("test.id", fmt.Sprint(id))
	e.Cycles = uint64(1000 + id)
	return e
}

// diskPath mirrors Cache.path for tests that damage entries in place.
func diskPath(dir string, k Key) string {
	hex := k.String()
	return filepath.Join(dir, hex[:2], hex+".entry")
}

// newCache opens a cache on a fresh directory.
func newCache(t *testing.T) *Cache {
	t.Helper()
	c, err := New(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCacheNeedsADirectory: a cache is a directory; there is no
// process-local tier to fall back to.
func TestCacheNeedsADirectory(t *testing.T) {
	var re *Error
	if c, err := New(Options{}); c != nil || !errors.As(err, &re) || re.Msg != "no cache directory given" {
		t.Fatalf("New without a directory = (%v, %v), want a structured error", c, err)
	}
}

func TestCacheHitAndMiss(t *testing.T) {
	c := newCache(t)
	e := entryForKey(1)
	if got, err := c.Get(e.Key); got != nil || err != nil {
		t.Fatalf("Get on empty cache = (%v, %v), want (nil, nil)", got, err)
	}
	c.Put(e)
	got, err := c.Get(e.Key)
	if err != nil || got == nil || got.Cycles != e.Cycles {
		t.Fatalf("Get after Put = (%+v, %v)", got, err)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Stores != 1 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss, 1 store", s)
	}
}

// TestCacheGetReadsTheFile: a handle keeps no entries. A fresh handle
// over the same directory (a new process) hits, and an entry whose file
// is gone misses even on the handle that stored and read it.
func TestCacheGetReadsTheFile(t *testing.T) {
	dir := t.TempDir()
	a, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	e := entryForKey(2)
	a.Put(e)
	if _, err := os.Stat(diskPath(dir, e.Key)); err != nil {
		t.Fatalf("entry file missing after Put: %v", err)
	}
	b, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.Get(e.Key)
	if err != nil || got == nil || got.Cycles != e.Cycles {
		t.Fatalf("warm Get = (%+v, %v)", got, err)
	}
	if s := b.Stats(); s.Hits != 1 || s.Misses != 0 {
		t.Errorf("warm stats = %+v, want pure hit", s)
	}
	if err := os.Remove(diskPath(dir, e.Key)); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*Cache{"storing": a, "reading": b} {
		if got, err := c.Get(e.Key); got != nil || err != nil {
			t.Errorf("%s handle: Get of a removed entry = (%+v, %v), want a miss", name, got, err)
		}
	}
}

// TestCacheDamagedEntryFallback is the satellite contract: corrupted,
// truncated, and version-skewed on-disk entries must surface as a
// structured *Error plus a cache.corrupt count — never a panic — and
// leave the caller free to fall back to simulation and overwrite the
// damaged file.
func TestCacheDamagedEntryFallback(t *testing.T) {
	damage := []struct {
		name string
		mut  func(t *testing.T, data []byte) []byte
	}{
		{"corrupt", func(t *testing.T, data []byte) []byte {
			return bytes.Replace(data, []byte("cycles"), []byte("cYcles"), 1)
		}},
		{"truncated", func(t *testing.T, data []byte) []byte {
			return data[:len(data)*2/3]
		}},
		{"version-skew", func(t *testing.T, data []byte) []byte {
			return resign(t, bytes.Replace(data, []byte(entryMagic+"\n"), []byte("tempest-resultcache v99\n"), 1))
		}},
	}
	for _, d := range damage {
		t.Run(d.name, func(t *testing.T) {
			dir := t.TempDir()
			a, err := New(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			e := entryForKey(7)
			a.Put(e)
			path := diskPath(dir, e.Key)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, d.mut(t, data), 0o644); err != nil {
				t.Fatal(err)
			}

			c, err := New(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			got, gerr := c.Get(e.Key)
			if got != nil {
				t.Fatalf("damaged entry decoded to %+v", got)
			}
			var re *Error
			if !errors.As(gerr, &re) || re.Op != "decode" {
				t.Fatalf("Get error = %v, want decode *Error", gerr)
			}
			if re.Path != path {
				t.Errorf("error path = %q, want %q", re.Path, path)
			}
			if s := c.Stats(); s.Corrupt != 1 || s.Hits != 0 {
				t.Errorf("stats = %+v, want exactly 1 corrupt, 0 hits", s)
			}
			// The fallback path: re-simulate, Put, and the key serves again.
			c.Put(e)
			if got, err := c.Get(e.Key); err != nil || got == nil || got.Cycles != e.Cycles {
				t.Fatalf("Get after overwrite = (%+v, %v)", got, err)
			}
			if s := c.Stats(); s.Errors != 0 {
				t.Errorf("overwrite counted %d write errors", s.Errors)
			}
		})
	}
}

func TestCacheMisfiledEntryIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	e := entryForKey(8)
	c.Put(e)
	// File a valid entry under a different key's path.
	other := keyOf("other", "slot")
	src := diskPath(dir, e.Key)
	dst := diskPath(dir, other)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, gerr := c.Get(other)
	var re *Error
	if got != nil || !errors.As(gerr, &re) || re.Op != "decode" {
		t.Fatalf("misfiled Get = (%+v, %v), want decode *Error", got, gerr)
	}
	if s := c.Stats(); s.Corrupt != 1 {
		t.Errorf("stats = %+v, want 1 corrupt", s)
	}
}

func TestCountersSnapshot(t *testing.T) {
	c := newCache(t)
	e := entryForKey(10)
	c.Put(e)
	if _, err := c.Get(e.Key); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(keyOf("missing", "x")); err != nil {
		t.Fatal(err)
	}
	if got, want := c.Stats(), (Stats{Hits: 1, Misses: 1, Stores: 1}); got != want {
		t.Errorf("Stats() = %+v, want %+v", got, want)
	}
	wantStr := "1 hits, 1 misses, 1 stores, 0 corrupt"
	if got := c.Stats().String(); got != wantStr {
		t.Errorf("Stats.String() = %q, want %q", got, wantStr)
	}
}

func TestCodeDigest(t *testing.T) {
	d1, err := CodeDigest()
	if err != nil {
		t.Fatalf("CodeDigest: %v", err)
	}
	if len(d1) != 16 {
		t.Errorf("digest %q is not 16 hex chars", d1)
	}
	d2, err := CodeDigest()
	if err != nil || d2 != d1 {
		t.Errorf("CodeDigest unstable: %q then (%q, %v)", d1, d2, err)
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c := newCache(t)
	done := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func(w int) {
			for i := 0; i < 50; i++ {
				e := entryForKey(i % 16)
				c.Put(e)
				got, err := c.Get(e.Key)
				if err != nil {
					done <- err
					return
				}
				if got == nil || got.Cycles != e.Cycles {
					done <- fmt.Errorf("worker %d: Get(%d) = %+v", w, i%16, got)
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 4; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

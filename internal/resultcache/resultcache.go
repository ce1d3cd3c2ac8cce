// Package resultcache is a content-addressed store for simulation
// results. Every run in this repo is bit-deterministic at any worker
// count, so a simulation's output is a pure function of
// its canonical input (machine configuration, system, application
// parameters, and a digest of the simulator sources); that function is
// safe to memoize. The caller hashes that input into a Key
// (harness.PointKey). A cache is one directory of versioned, checksummed
// entry files, shared by every process (and every fleet worker) pointed
// at it, with structured errors (never panics) for damaged entries, and
// hit/miss/store telemetry (Stats).
package resultcache

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Options configures a Cache.
type Options struct {
	// Dir is the cache's directory (required). It is created if missing;
	// entries live at Dir/<hex[:2]>/<hex>.entry.
	Dir string
}

// Stats is a snapshot of cache telemetry.
type Stats struct {
	// Hits and Misses count Get outcomes; Stores counts successful
	// Puts. Verified counts hits re-simulated by -cache-verify that
	// matched. Corrupt counts damaged entries that fell back to
	// simulation. Errors counts disk I/O failures on writes (reads that
	// fail to find an entry are misses, not errors).
	Hits, Misses, Stores, Verified, Corrupt, Errors uint64
}

func (s Stats) String() string {
	out := fmt.Sprintf("%d hits, %d misses, %d stores, %d verified, %d corrupt", s.Hits, s.Misses, s.Stores, s.Verified, s.Corrupt)
	if s.Errors > 0 {
		out += fmt.Sprintf(", %d write errors", s.Errors)
	}
	return out
}

// Cache is a handle on one cache directory. All methods are safe for
// concurrent use; pool workers share one Cache per sweep. Every Get
// reads the entry file: the handle holds telemetry, not entries.
type Cache struct {
	dir string

	mu    sync.Mutex
	stats Stats
}

// New opens the cache directory, creating it on the spot so a
// misconfigured path fails at startup, not mid-sweep.
func New(o Options) (*Cache, error) {
	if o.Dir == "" {
		return nil, &Error{Op: "write", Msg: "no cache directory given"}
	}
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, &Error{Op: "write", Path: o.Dir, Msg: err.Error()}
	}
	return &Cache{dir: o.Dir}, nil
}

// path returns the on-disk location of a key, fanned out by the first
// hex byte so directories stay small.
func (c *Cache) path(k Key) string {
	hex := k.String()
	return filepath.Join(c.dir, hex[:2], hex+".entry")
}

// count bumps one telemetry counter.
func (c *Cache) count(n *uint64) {
	c.mu.Lock()
	*n++
	c.mu.Unlock()
}

// Get reads a key's entry file. A damaged entry (corrupt, truncated,
// or version-skewed) counts as cache.corrupt and returns the structured
// decode *Error alongside a nil entry; the caller falls back to
// simulation. A clean not-found is (nil, nil).
func (c *Cache) Get(k Key) (*Entry, error) {
	path := c.path(k)
	data, err := os.ReadFile(path)
	if err != nil {
		c.count(&c.stats.Misses)
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, &Error{Op: "read", Path: path, Msg: err.Error()}
	}
	e, derr := decode(data, path)
	if derr == nil && e.Key != k {
		derr = &Error{Op: "decode", Path: path, Msg: fmt.Sprintf("entry records key %s but is filed under %s", e.Key, k)}
	}
	if derr != nil {
		c.count(&c.stats.Corrupt)
		return nil, derr
	}
	c.count(&c.stats.Hits)
	return e, nil
}

// Put writes an entry's file. A failed write is counted, not returned:
// the sweep's results are unaffected, only future warm starts are.
func (c *Cache) Put(e *Entry) {
	if err := c.write(e); err != nil {
		c.count(&c.stats.Errors)
		return
	}
	c.count(&c.stats.Stores)
}

// write encodes to a temp file in the final directory and renames, so
// concurrent writers of the same key land whole entries.
func (c *Cache) write(e *Entry) error {
	path := c.path(e.Key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+e.Key.String()+".tmp*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(e.Encode())
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr != nil {
			return werr
		}
		return cerr
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// ShouldVerify deterministically selects whether a hit on k is in the
// re-simulation sample for the given fraction. The choice is a pure
// function of the key (a hash threshold, no randomness), so the same
// sweep verifies the same points on every run.
func (c *Cache) ShouldVerify(k Key, fraction float64) bool {
	if fraction <= 0 {
		return false
	}
	if fraction >= 1 {
		return true
	}
	h := sha256.Sum256(append([]byte("tempest-resultcache-verify\n"), k[:]...))
	const span = 1_000_000
	v := binary.LittleEndian.Uint64(h[:8]) % span
	return v < uint64(fraction*span)
}

// NoteVerified records one hit that was re-simulated and matched.
func (c *Cache) NoteVerified() { c.count(&c.stats.Verified) }

// Stats returns a telemetry snapshot.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Package resultcache is a content-addressed store for simulation
// results. Every run in this repo is bit-deterministic at any worker
// count, so a simulation's output is a pure function of
// its canonicalized input (machine configuration, system, application
// parameters, and a digest of the simulator sources); that function is
// safe to memoize. The cache is two-tier — an in-memory LRU always,
// plus an optional on-disk directory that persists results across
// processes — with a versioned, checksummed entry format, structured
// errors (never panics) for damaged entries, and hit/miss/store
// telemetry surfaced through the standard stats counters.
package resultcache

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"github.com/tempest-sim/tempest/internal/stats"
)

// defaultMemEntries bounds the in-memory tier when Options.MemEntries
// is zero. A full Figure 3 sweep is ~120 points; 4096 entries keeps
// every sweep this repo runs resident with room to spare.
const defaultMemEntries = 4096

// Options configures a Cache.
type Options struct {
	// Dir is the on-disk tier's directory ("" for memory-only). It is
	// created if missing; entries live at Dir/<hex[:2]>/<hex>.entry.
	Dir string
	// MemEntries bounds the in-memory LRU (default 4096).
	MemEntries int
}

// Stats is a snapshot of cache telemetry.
type Stats struct {
	// Hits and Misses count Get outcomes; Stores counts successful
	// Puts. Verified counts hits re-simulated by -cache-verify that
	// matched. Corrupt counts damaged on-disk entries that fell back to
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

// Cache is the two-tier store. All methods are safe for concurrent
// use; RunAll workers share one Cache per sweep.
type Cache struct {
	dir string

	mu    sync.Mutex
	max   int
	order *list.List // front = most recently used; values are *memEntry
	byKey map[Key]*list.Element
	stats Stats
}

type memEntry struct {
	key Key
	e   *Entry
}

// New builds a Cache. With a non-empty Dir the directory is created on
// the spot so a misconfigured path fails at startup, not mid-sweep.
func New(o Options) (*Cache, error) {
	if o.MemEntries <= 0 {
		o.MemEntries = defaultMemEntries
	}
	if o.Dir != "" {
		if err := os.MkdirAll(o.Dir, 0o755); err != nil {
			return nil, &Error{Op: "write", Path: o.Dir, Msg: err.Error()}
		}
	}
	return &Cache{
		dir:   o.Dir,
		max:   o.MemEntries,
		order: list.New(),
		byKey: make(map[Key]*list.Element),
	}, nil
}

// Persistent reports whether the cache has an on-disk tier.
func (c *Cache) Persistent() bool { return c.dir != "" }

// path returns the on-disk location of a key, fanned out by the first
// hex byte so directories stay small.
func (c *Cache) path(k Key) string {
	hex := k.String()
	return filepath.Join(c.dir, hex[:2], hex+".entry")
}

// Get looks a key up in memory, then on disk. A damaged disk entry
// (corrupt, truncated, or version-skewed) counts as cache.corrupt and
// returns the structured decode *Error alongside a nil entry; the
// caller falls back to simulation. A clean not-found is (nil, nil).
func (c *Cache) Get(k Key) (*Entry, error) {
	c.mu.Lock()
	if el, ok := c.byKey[k]; ok {
		c.order.MoveToFront(el)
		c.stats.Hits++
		e := el.Value.(*memEntry).e
		c.mu.Unlock()
		return e, nil
	}
	c.mu.Unlock()
	if c.dir == "" {
		c.mu.Lock()
		c.stats.Misses++
		c.mu.Unlock()
		return nil, nil
	}
	path := c.path(k)
	data, err := os.ReadFile(path)
	if err != nil {
		c.mu.Lock()
		c.stats.Misses++
		c.mu.Unlock()
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
		c.mu.Lock()
		c.stats.Corrupt++
		c.mu.Unlock()
		return nil, derr
	}
	c.mu.Lock()
	c.insertLocked(e)
	c.stats.Hits++
	c.mu.Unlock()
	return e, nil
}

// insertLocked adds e to the memory tier, evicting from the LRU tail.
func (c *Cache) insertLocked(e *Entry) {
	if el, ok := c.byKey[e.Key]; ok {
		el.Value.(*memEntry).e = e
		c.order.MoveToFront(el)
		return
	}
	c.byKey[e.Key] = c.order.PushFront(&memEntry{key: e.Key, e: e})
	for c.order.Len() > c.max {
		tail := c.order.Back()
		delete(c.byKey, tail.Value.(*memEntry).key)
		c.order.Remove(tail)
	}
}

// Put stores an entry in both tiers. Disk failures are counted (the
// sweep's results are unaffected — only future warm starts are) and
// the memory tier still holds the entry.
func (c *Cache) Put(e *Entry) {
	c.mu.Lock()
	c.insertLocked(e)
	c.stats.Stores++
	diskErr := false
	c.mu.Unlock()
	if c.dir != "" {
		if err := c.writeDisk(e); err != nil {
			diskErr = true
		}
	}
	if diskErr {
		c.mu.Lock()
		c.stats.Errors++
		c.mu.Unlock()
	}
}

// writeDisk encodes to a temp file in the final directory and renames,
// so concurrent writers of the same key land whole entries.
func (c *Cache) writeDisk(e *Entry) error {
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
func (c *Cache) NoteVerified() {
	c.mu.Lock()
	c.stats.Verified++
	c.mu.Unlock()
}

// Stats returns a telemetry snapshot.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Counters renders the telemetry as standard stats counters
// (cache.hits, cache.misses, cache.stores, cache.verified,
// cache.corrupt, cache.write_errors) for the existing reporting
// plumbing.
func (c *Cache) Counters() *stats.Counters {
	s := c.Stats()
	ctr := stats.NewCounters()
	ctr.Add("cache.hits", s.Hits)
	ctr.Add("cache.misses", s.Misses)
	ctr.Add("cache.stores", s.Stores)
	ctr.Add("cache.verified", s.Verified)
	ctr.Add("cache.corrupt", s.Corrupt)
	if s.Errors > 0 {
		ctr.Add("cache.write_errors", s.Errors)
	}
	return ctr
}

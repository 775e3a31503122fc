// Package cache is the two-tier content-addressed result store of the
// serving layer: an in-memory LRU with byte-size accounting in front
// of an optional on-disk JSON store, both keyed by the job content
// hash (internal/jobs.Hash). The memory tier keeps its bytes off the
// Go heap, in mmap'd size-classed slabs (slab.go).
//
// Content addressing is what turns caching into a correctness-neutral
// optimisation here: a key is a pure function of the canonicalised
// request (plus schema version), and every value is the marshalled
// result of the deterministic engine, so a hit can only ever return
// the exact bytes a recompute would produce — a guarantee the tests
// pin rather than assume. Hit/miss/evict counters are reported
// through obs.CacheStats and surface on the server's /metricsz.
//
// The disk tier is best effort: read/write failures are counted
// (DiskErrors) and degrade the cache to memory-only behaviour instead
// of failing lookups. It is also verified and durable: every entry is
// framed with the sha256 of its payload and checked on read — a
// corrupt file (flipped bit, truncation, pre-v2 format) is quarantined
// into corrupt/ and recomputed, never served — and writes fsync both
// the file and its parent directory around the atomic rename, so a
// persisted entry survives power loss. All disk I/O flows through the
// internal/fsx seam, which is how the chaos suite injects faults.
package cache

import (
	"fmt"
	"runtime"
	"sync"

	"starperf/internal/cfgerr"
	"starperf/internal/fsx"
	"starperf/internal/obs"
)

// Config sizes a Cache. The zero value is a memory-only cache with
// the default byte bound.
type Config struct {
	// MaxBytes bounds the memory tier's total value bytes
	// (default 64 MiB). An entry larger than the bound is stored on
	// disk (when configured) but not pinned in memory.
	MaxBytes int64
	// Dir, when non-empty, enables the disk tier: one
	// <hash>.json file per entry under this directory, created if
	// missing. Disk survives process restarts; memory does not.
	Dir string
	// FS is the filesystem seam under the disk tier (default
	// fsx.OS{}; chaos tests inject fsx.Faulty).
	FS fsx.FS
}

// Cache is a two-tier content-addressed byte store, safe for
// concurrent use. mu guards the memory tier and the counters; the
// mappings behind the memory tier are made and released outside it.
type Cache struct {
	mu    sync.Mutex
	max   int64
	dir   string
	fs    fsx.FS
	mem   *slabs
	bytes int64 // value bytes in the memory tier

	memHits     uint64
	diskHits    uint64
	misses      uint64
	puts        uint64
	evictions   uint64
	diskWrites  uint64
	diskErrors  uint64
	quarantined uint64
}

// New returns a cache for cfg, creating cfg.Dir when set.
func New(cfg Config) (*Cache, error) {
	if cfg.MaxBytes < 0 {
		return nil, cfgerr.Errorf("cache: MaxBytes %d must be non-negative", cfg.MaxBytes)
	}
	if cfg.MaxBytes == 0 {
		cfg.MaxBytes = 64 << 20
	}
	if cfg.FS == nil {
		cfg.FS = fsx.OS{}
	}
	if cfg.Dir != "" {
		if err := cfg.FS.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("cache: creating %s: %w", cfg.Dir, err)
		}
	}
	c := &Cache{max: cfg.MaxBytes, dir: cfg.Dir, fs: cfg.FS, mem: newSlabs()}
	// A dropped Cache hands its mappings back once collected.
	runtime.SetFinalizer(c, func(c *Cache) { unmapMem(c.mem.releaseAll()) })
	return c, nil
}

// Get returns a copy of the value stored under key. A memory miss
// falls through to the disk tier; a disk hit is promoted into memory.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	if id := c.mem.lookup(c.mem.hash(key), key); id >= 0 {
		c.mem.touch(id)
		c.memHits++
		out := append([]byte(nil), c.mem.value(id)...)
		c.mu.Unlock()
		return out, true
	}
	c.mu.Unlock()
	if c.dir == "" {
		c.count(&c.misses)
		return nil, false
	}
	val, ok := c.readFile(key)
	if !ok {
		c.count(&c.misses)
		return nil, false
	}
	c.store(key, val, &c.diskHits)
	return val, true
}

// Contains reports whether key is resident in either tier without
// touching recency or the hit/miss counters.
func (c *Cache) Contains(key string) bool {
	c.mu.Lock()
	ok := c.mem.lookup(c.mem.hash(key), key) >= 0
	c.mu.Unlock()
	if ok || c.dir == "" {
		return ok
	}
	return c.statFile(key)
}

// Put stores a copy of val under key in both tiers. Storing is
// idempotent — content addressing means a re-put of the same key
// carries the same bytes.
func (c *Cache) Put(key string, val []byte) {
	c.store(key, val, &c.puts)
	if c.dir == "" {
		return
	}
	if err := c.writeFile(key, val); err != nil {
		c.count(&c.diskErrors)
		return
	}
	c.count(&c.diskWrites)
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() obs.CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return obs.CacheStats{
		Entries:     c.mem.live,
		Bytes:       c.bytes,
		MappedBytes: c.mem.mapped,
		MaxBytes:    c.max,
		MemHits:     c.memHits,
		DiskHits:    c.diskHits,
		Misses:      c.misses,
		Puts:        c.puts,
		Evictions:   c.evictions,
		DiskWrites:  c.diskWrites,
		DiskErrors:  c.diskErrors,
		Quarantined: c.quarantined,
	}
}

// store copies val into the memory tier under key as the most
// recently used entry, bumping counter, and evicts from the LRU tail
// until the byte bound holds. A value larger than the whole bound
// evicts every entry and then itself: it is served from disk (when
// configured) rather than monopolising memory.
//
// When no slot of the entry's size class is free, store drops the
// lock, maps a chunk and retries; mappings the store no longer needs
// are released after the lock is dropped, so no system call ever runs
// under c.mu.
func (c *Cache) store(key string, val []byte, counter *uint64) {
	class := classFor(len(key) + len(val))
	var spare []byte // a chunk mapped while the lock was dropped
	var drop [][]byte
	defer func() {
		if spare != nil {
			drop = append(drop, spare)
		}
		unmapMem(drop)
	}()
	for {
		c.mu.Lock()
		if int64(len(val)) > c.max {
			*counter++
			drop = c.flushLocked(key)
			c.mu.Unlock()
			return
		}
		at, ok := c.mem.reserve(class)
		if !ok && spare != nil {
			at, ok = c.mem.adopt(spare, class), true
			spare = nil
		}
		if ok {
			*counter++
			drop = c.insertLocked(key, val, at)
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()
		if spare = mapMem(mappingSize(class, len(key)+len(val))); spare == nil {
			c.count(counter) // no memory to map: the entry stays disk-only
			return
		}
	}
}

// insertLocked links val under key into the reserved slot at,
// replacing any previous entry, and evicts until the byte bound
// holds. It returns the mappings to release.
func (c *Cache) insertLocked(key string, val []byte, at slotRef) [][]byte {
	var drop [][]byte
	h := c.mem.hash(key)
	if id := c.mem.lookup(h, key); id >= 0 {
		c.bytes -= int64(c.mem.ents[id].vlen)
		drop = appendMapping(drop, c.mem.remove(id))
	}
	c.mem.insert(h, key, val, at)
	c.bytes += int64(len(val))
	for c.bytes > c.max {
		id := c.mem.tail
		c.bytes -= int64(c.mem.ents[id].vlen)
		drop = appendMapping(drop, c.mem.remove(id))
		c.evictions++
	}
	return drop
}

// flushLocked is insertLocked for a value larger than the bound: the
// entry would evict everything behind it and then itself, so the
// memory tier empties and every entry counts as evicted.
func (c *Cache) flushLocked(key string) [][]byte {
	n := c.mem.live
	if c.mem.lookup(c.mem.hash(key), key) < 0 {
		n++
	}
	c.evictions += uint64(n)
	c.bytes = 0
	return c.mem.releaseAll()
}

func appendMapping(drop [][]byte, m []byte) [][]byte {
	if m == nil {
		return drop
	}
	return append(drop, m)
}

// count bumps one counter under the lock.
func (c *Cache) count(field *uint64) {
	c.mu.Lock()
	*field++
	c.mu.Unlock()
}

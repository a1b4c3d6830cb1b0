package servecache

import (
	"container/list"
	"sync"

	"fpm/internal/dataset"
	"fpm/internal/failpoint"
	"fpm/internal/fimi"
)

// DatasetCache shares parsed FIMI databases across jobs. Entries are
// ref-counted: Acquire pins an entry for the duration of a mining run and
// Release unpins it; eviction only ever considers entries with zero
// references, so a job can never observe its database disappearing
// mid-mine. Concurrent Acquires of the same identity coalesce onto one
// parse (the losers wait for the winner's result) — a thundering herd of
// hot-key jobs costs one parse, not N.
//
// The cached *dataset.DB is shared read-only between concurrent jobs;
// the kernels never mutate their input database (the work-stealing pool
// already shares one DB across workers), which is what makes this safe.
type DatasetCache struct {
	mu       sync.Mutex
	maxBytes int64
	entries  map[Identity]*Dataset
	lru      *list.List // cold (refs==0) entries only; back = coldest
	resident int64
	stats    DatasetStats
}

// DatasetStats is a point-in-time census of the dataset cache.
type DatasetStats struct {
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	// Skipped counts datasets that were mined uncached because the cache
	// could not make room (everything resident was ref-held, or the
	// dataset alone exceeds the cap).
	Skipped uint64 `json:"skipped"`
}

// Dataset is one cached parsed database. The handle stays valid while the
// caller holds a reference (between Acquire and Release).
type Dataset struct {
	ID    Identity
	DB    *dataset.DB
	Bytes int64

	refs    int
	ready   chan struct{} // closed once the parse finished (DB or err set)
	err     error
	evicted bool
	elem    *list.Element // non-nil while parked on the cold LRU list
}

// Evicted reports whether the entry was evicted from the cache. It must
// never be observable as true while a reference is held — the storm tests
// pin that invariant.
func (d *Dataset) Evicted() bool { return d.evicted }

// NewDatasetCache builds a cache bounded to maxBytes of resident parsed
// databases (<= 0 means unbounded — callers normally pass a slice of the
// serve memory budget).
func NewDatasetCache(maxBytes int64) *DatasetCache {
	return &DatasetCache{
		maxBytes: maxBytes,
		entries:  make(map[Identity]*Dataset),
		lru:      list.New(),
	}
}

// Acquire returns the parsed database for the file at path, pinning it in
// the cache until the matching Release. On a miss the caller's goroutine
// runs the parse while concurrent acquirers of the same identity wait for
// it. If the parsed database cannot be made resident under the cap (all
// of the cache is ref-held by other jobs, or the database alone exceeds
// it), the database is still returned but stays uncached — the handle is
// then a detached one and Release is a no-op for it. The outcome is what
// the flight recorder reports: "hit" (the parse was already resident),
// "coalesced" (another job's in-flight parse was joined), or "miss" (this
// call ran the parse).
func (c *DatasetCache) Acquire(path string) (*Dataset, string, error) {
	id, err := FileIdentity(path)
	if err != nil {
		return nil, "", err
	}
	c.mu.Lock()
	if e, ok := c.entries[id]; ok {
		e.refs++
		if e.elem != nil { // was cold: pull it off the eviction list
			c.lru.Remove(e.elem)
			e.elem = nil
		}
		c.stats.Hits++
		// ready closes under c.mu, so this probe cleanly splits resident
		// entries from parses still in flight.
		outcome := "hit"
		select {
		case <-e.ready:
		default:
			outcome = "coalesced"
		}
		c.mu.Unlock()
		<-e.ready
		if e.err != nil {
			// The parse failed after we joined it; the winner already
			// removed the entry from the map.
			return nil, outcome, e.err
		}
		return e, outcome, nil
	}
	e := &Dataset{ID: id, refs: 1, ready: make(chan struct{})}
	c.entries[id] = e
	c.stats.Misses++
	c.mu.Unlock()

	// The failpoint models a transient parse-time I/O fault (e.g. a
	// flaky network filesystem); it routes through the same error path a
	// real read failure takes, so the entry is removed and the next
	// Acquire — a retry attempt included — re-runs the parse.
	db, err := (*dataset.DB)(nil), failpoint.Hit(failpoint.ServecacheDatasetParse)
	if err == nil {
		db, err = fimi.ReadFile(path)
	}

	c.mu.Lock()
	if err != nil {
		e.err = err
		delete(c.entries, id) // next Acquire retries the parse
		close(e.ready)
		c.mu.Unlock()
		return nil, "miss", err
	}
	e.DB = db
	e.Bytes = fimi.DBBytes(db)
	if c.makeRoom(e.Bytes) {
		c.resident += e.Bytes
	} else {
		// No room: serve the parse result but keep it out of the cache.
		delete(c.entries, id)
		e.evicted = false // detached, never was resident
		e.elem = nil
		c.stats.Skipped++
		close(e.ready)
		c.mu.Unlock()
		return e, "miss", nil
	}
	close(e.ready)
	c.mu.Unlock()
	return e, "miss", nil
}

// Release unpins a handle returned by Acquire. When the last reference
// drops, the entry becomes eligible for eviction (it stays resident until
// space is needed — that residency is the whole point of the cache).
func (c *DatasetCache) Release(e *Dataset) {
	if e == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries[e.ID] != e { // detached or already evicted-and-replaced
		return
	}
	e.refs--
	if e.refs == 0 {
		e.elem = c.lru.PushFront(e) // most recently used cold entry
		if c.maxBytes > 0 && c.resident > c.maxBytes {
			c.evictLocked(c.resident - c.maxBytes)
		}
	}
}

// Shed evicts cold entries, oldest first, until at least need bytes were
// freed or no cold entry remains; it returns the bytes actually freed.
// The admission controller calls this when a queued job does not fit
// under the global budget — cached-but-unpinned datasets are the memory
// the service can give back without killing work.
func (c *DatasetCache) Shed(need int64) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictLocked(need)
}

// evictLocked frees >= need bytes of cold entries (LRU first); callers
// hold c.mu. Returns the bytes freed.
func (c *DatasetCache) evictLocked(need int64) int64 {
	var freed int64
	for freed < need {
		back := c.lru.Back()
		if back == nil {
			break
		}
		e := back.Value.(*Dataset)
		c.lru.Remove(back)
		e.elem = nil
		e.evicted = true
		delete(c.entries, e.ID)
		c.resident -= e.Bytes
		freed += e.Bytes
		c.stats.Evictions++
	}
	return freed
}

// makeRoom evicts cold entries until adding n bytes would fit under the
// cap; reports whether it succeeded. Callers hold c.mu.
func (c *DatasetCache) makeRoom(n int64) bool {
	if c.maxBytes <= 0 {
		return true
	}
	if n > c.maxBytes {
		return false
	}
	if over := c.resident + n - c.maxBytes; over > 0 {
		c.evictLocked(over)
	}
	return c.resident+n <= c.maxBytes
}

// Resident returns the bytes of parsed databases currently held.
func (c *DatasetCache) Resident() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resident
}

// Stats returns a consistent snapshot of the cache counters.
func (c *DatasetCache) Stats() DatasetStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.entries)
	s.Bytes = c.resident
	return s
}

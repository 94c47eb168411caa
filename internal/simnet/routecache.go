package simnet

import (
	"sync"
	"sync/atomic"

	"gaussiancube/internal/gc"
)

// RouteCache is a bounded, sharded cache of computed routes keyed by
// (source, destination), evicting by CLOCK (second chance). It replaces
// the unbounded per-run route map: shards keep lock contention low when
// the cache is shared by concurrent simulations (the parallel sweep
// workers of internal/experiments), and the per-shard bound keeps
// memory flat under long permutation workloads.
//
// A hit takes only its shard's read lock and sets the entry's reference
// bit (storing it only when it is clear), so concurrent readers of a
// shard never serialize and a hot entry's cache line stays shared. A
// Put into a full shard sweeps the shard's list from the tail under the
// write lock: a referenced entry has its bit cleared and goes back to
// the head, and the first unreferenced one is recycled.
//
// The key does not encode the topology or the fault configuration, so a
// cache shared across runs (or across fault transitions within one run)
// would happily serve routes planned against a different network. The
// epoch token closes that hole: every consumer stamps the cache with a
// token identifying the fault state its routes are computed against
// (fault.Set.Fingerprint / fault.Dynamic.Fingerprint) via InvalidateTo,
// which atomically clears all entries whenever the token changes. Runs
// sharing a cache across different topologies remain unsupported.
// Cached paths are shared read-only slices; callers must not modify
// them. Within a single Run the cache is touched sequentially, so Stats
// remain bit-for-bit deterministic for a fixed Config.Seed.
type RouteCache struct {
	mu            sync.Mutex // serializes epoch transitions
	epoch         atomic.Uint64
	invalidations atomic.Int64
	shards        [cacheShards]cacheShard
}

const cacheShards = 16

// DefaultRouteCacheCapacity is the total entry bound used when
// Config.CacheRoutes is set without an explicit RouteCache.
const DefaultRouteCacheCapacity = 1 << 16

// routeKey identifies a cached plan. tree is the multipath spanning
// tree the path was planned on (-1 for a single-tree router): two
// routers striping the same flow over different trees plan genuinely
// different paths, so a sibling-tree failover must never be served a
// path cached by another tree under the same (src, dst, epoch).
type routeKey struct {
	s, d gc.NodeID
	tree int16
}

type cacheEntry struct {
	key  routeKey
	path []gc.NodeID
	// ref is the CLOCK reference bit: set by hits under the shard's read
	// lock, cleared by the eviction sweep under its write lock.
	ref        atomic.Bool
	prev, next *cacheEntry // the CLOCK ring; the sweep starts at the tail
}

type cacheShard struct {
	mu         sync.RWMutex
	capacity   int
	table      map[routeKey]*cacheEntry
	head, tail *cacheEntry
}

// NewRouteCache builds a cache bounded to roughly the given total number
// of entries (rounded up to at least one per shard).
func NewRouteCache(capacity int) *RouteCache {
	perShard := (capacity + cacheShards - 1) / cacheShards
	if perShard < 1 {
		perShard = 1
	}
	c := &RouteCache{}
	for i := range c.shards {
		c.shards[i].capacity = perShard
		c.shards[i].table = make(map[routeKey]*cacheEntry)
	}
	return c
}

// Epoch returns the fault-state token the cache was last stamped with
// (zero before the first InvalidateTo).
func (c *RouteCache) Epoch() uint64 { return c.epoch.Load() }

// Invalidations returns how many times InvalidateTo flushed the cache.
func (c *RouteCache) Invalidations() int64 { return c.invalidations.Load() }

// InvalidateTo stamps the cache with the fault-state token its next
// routes are computed against. When the token differs from the current
// stamp, every entry is dropped — they were planned against a network
// that no longer exists — and the call reports true. Stamping with the
// current token is a cheap no-op. The zero token means "no faults"
// (fault.Set.Fingerprint of an empty set), which is also the implicit
// state of a fresh cache, so fault-free consumers may skip stamping.
func (c *RouteCache) InvalidateTo(token uint64) bool {
	if c.epoch.Load() == token {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.epoch.Load() == token { // raced with another invalidator
		return false
	}
	c.epoch.Store(token)
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.table = make(map[routeKey]*cacheEntry)
		sh.head, sh.tail = nil, nil
		sh.mu.Unlock()
	}
	c.invalidations.Add(1)
	return true
}

func (c *RouteCache) shard(k routeKey) *cacheShard {
	h := uint32(k.s)*0x9e3779b1 ^ uint32(k.d)*0x85ebca77
	return &c.shards[h%cacheShards]
}

// Get returns the single-tree cached path for (s, d) and marks it
// referenced. The returned slice is shared; callers must not modify it.
// Multipath consumers use GetTree.
func (c *RouteCache) Get(s, d gc.NodeID) ([]gc.NodeID, bool) {
	return c.GetTree(s, d, -1)
}

// GetTree is Get for a path planned on a specific multipath tree
// (-1 means single-tree). Paths cached under one tree are invisible to
// every other tree.
func (c *RouteCache) GetTree(s, d gc.NodeID, tree int) ([]gc.NodeID, bool) {
	k := routeKey{s, d, int16(tree)}
	sh := c.shard(k)
	sh.mu.RLock()
	path, ok := sh.lookup(k)
	sh.mu.RUnlock()
	return path, ok
}

// Put stores the single-tree path for (s, d), evicting by CLOCK when
// the shard is full. The cache takes ownership of path as a shared
// read-only slice.
func (c *RouteCache) Put(s, d gc.NodeID, path []gc.NodeID) {
	c.PutTree(s, d, -1, path)
}

// PutTree is Put for a path planned on a specific multipath tree
// (-1 means single-tree).
func (c *RouteCache) PutTree(s, d gc.NodeID, tree int, path []gc.NodeID) {
	k := routeKey{s, d, int16(tree)}
	sh := c.shard(k)
	sh.mu.Lock()
	sh.store(k, path)
	sh.mu.Unlock()
}

// Len returns the current number of cached routes.
func (c *RouteCache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		n += len(sh.table)
		sh.mu.RUnlock()
	}
	return n
}

// lookup returns k's path and sets its reference bit. The bit is
// stored only when it is clear, so hits on a hot entry stay reads. The
// slice header is copied under the lock: once the lock is released an
// eviction may recycle the entry and overwrite its path. Called with
// sh.mu held, read or write.
func (sh *cacheShard) lookup(k routeKey) ([]gc.NodeID, bool) {
	e, ok := sh.table[k]
	if !ok {
		return nil, false
	}
	if !e.ref.Load() {
		e.ref.Store(true)
	}
	return e.path, true
}

// store inserts or overwrites k. An overwrite counts as a use; an
// insert into a full shard recycles the CLOCK victim instead of
// allocating. Called with sh.mu write-locked.
func (sh *cacheShard) store(k routeKey, path []gc.NodeID) {
	e, ok := sh.table[k]
	if ok {
		e.ref.Store(true)
	} else {
		if len(sh.table) < sh.capacity {
			e = &cacheEntry{}
		} else {
			e = sh.evict()
		}
		e.key = k
		sh.table[k] = e
		sh.pushFront(e)
	}
	e.path = path
}

// evict sweeps the list from the tail as a CLOCK ring and unlinks the
// first unreferenced entry. Each referenced entry it passes has its bit
// cleared and moves to the head, its second chance, so the sweep ends
// within one lap. Called with sh.mu write-locked on a non-empty shard.
func (sh *cacheShard) evict() *cacheEntry {
	for {
		e := sh.tail
		sh.unlink(e)
		if !e.ref.Load() {
			delete(sh.table, e.key)
			return e
		}
		e.ref.Store(false)
		sh.pushFront(e)
	}
}

func (sh *cacheShard) pushFront(e *cacheEntry) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *cacheShard) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

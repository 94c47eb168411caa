package simnet

import (
	"slices"
	"sync"
	"sync/atomic"

	"gaussiancube/internal/gc"
)

// RouteCache is a bounded, sharded cache of computed routes keyed by
// (source, destination), evicting by CLOCK (second chance). It replaces
// the unbounded per-run route map: shards keep lock contention low when
// the cache is shared by concurrent simulations (the parallel sweep
// workers of internal/experiments) or serving goroutines, and the
// per-shard bound keeps memory flat under long permutation workloads.
//
// A hit takes only its shard's read lock and sets the entry's reference
// bit (storing it only when it is clear), so concurrent readers of a
// shard never serialize and a hot entry's cache line stays shared. A
// Put into a full shard sweeps the shard's list from the tail under the
// write lock: a referenced entry has its bit cleared and goes back to
// the head, and the first unreferenced one is recycled.
//
// PutTagged, the serving layer's store, admits a new key into a full
// shard only on its second sight. Each shard keeps a doorkeeper (the
// TinyLFU idea: a small bitset of hashed keys) in which a declined key
// is marked, so a pair that comes back is stored on its next store,
// while a stream of pairs that never recur costs a bitset probe
// instead of a store and an eviction. A shard with free slots, and an
// overwrite, always admit. Put and PutTree store always: the
// simulator's cache keeps its reuse and CLOCK order unchanged.
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
	tag  uint32 // caller-defined metadata (see PutTagged)
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
	// door is the admission doorkeeper, a bitset of hashed keys seen
	// once while the shard was full; nil until the first gated insert
	// into a full shard. fresh counts the keys marked since its last
	// clear, which comes after capacity of them.
	door     []uint64
	fresh    int
	declined atomic.Int64 // gated inserts refused by the doorkeeper
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

// TestHookInvalidateAfterStamp, when non-nil, runs between the epoch
// stamp and the shard clears of InvalidateTo. Test-only: it exposes
// the stamp-to-clear window deterministically so consumers can pin
// their swap-ordering invariants — a reader that can hold the new
// token inside this window would see stale entries as valid.
var TestHookInvalidateAfterStamp func()

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
	// The stamp is published BEFORE the shards are cleared: a concurrent
	// PutTagged holding a shard lock either runs before that shard's
	// clear (and is wiped) or after it (and sees the new stamp inside
	// the lock, so its stale-token write is dropped). Entries therefore
	// never outlive the fault state they were planned against.
	c.epoch.Store(token)
	if TestHookInvalidateAfterStamp != nil {
		TestHookInvalidateAfterStamp()
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.table = make(map[routeKey]*cacheEntry)
		sh.head, sh.tail = nil, nil
		clear(sh.door)
		sh.fresh = 0
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
	path, _, ok := sh.lookup(k)
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
	sh.store(k, path, 0, false)
	sh.mu.Unlock()
}

// GetTagged is the epoch-safe variant of Get used by the serving fast
// path: it returns the cached path and its tag only when the cache is
// currently stamped with token, so a hit is guaranteed to have been
// planned against exactly the fault state the caller loaded. The token
// comparison happens inside the shard's read lock, pairing with
// InvalidateTo's stamp-before-clear ordering: the clear takes the write
// lock, so a reader either finishes before it or sees the new stamp.
// tree scopes the lookup to one multipath tree (-1 single-tree),
// exactly as in GetTree.
func (c *RouteCache) GetTagged(s, d gc.NodeID, tree int, token uint64) ([]gc.NodeID, uint32, bool) {
	k := routeKey{s, d, int16(tree)}
	sh := c.shard(k)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if c.epoch.Load() != token {
		return nil, 0, false
	}
	return sh.lookup(k)
}

// PutTagged stores the path with a caller-defined tag word (the serving
// layer packs precomputed detour metadata there so hits never recompute
// it), but only when the cache is still stamped with token — a write
// racing a fault-epoch swap is dropped rather than poisoning the new
// epoch with a stale plan. tree scopes the entry to one multipath tree
// (-1 single-tree). A new key is admitted into a full shard only on its
// second sight (see RouteCache); a declined store allocates nothing and
// counts in Declined. Unlike Put, PutTagged does not take ownership of
// path: the caller may reuse it, and the cache stores its own copy.
func (c *RouteCache) PutTagged(s, d gc.NodeID, tree int, path []gc.NodeID, tag uint32, token uint64) {
	k := routeKey{s, d, int16(tree)}
	sh := c.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if c.epoch.Load() != token {
		return
	}
	sh.store(k, path, tag, true)
}

// Declined returns how many PutTagged inserts the shards' doorkeepers
// refused.
func (c *RouteCache) Declined() int64 {
	var n int64
	for i := range c.shards {
		n += c.shards[i].declined.Load()
	}
	return n
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

// lookup returns k's path and tag and sets its reference bit. The bit
// is stored only when it is clear, so hits on a hot entry stay reads.
// The slice header is copied under the lock: once the lock is released
// an eviction may recycle the entry and overwrite its path. Called with
// sh.mu held, read or write.
func (sh *cacheShard) lookup(k routeKey) ([]gc.NodeID, uint32, bool) {
	e, ok := sh.table[k]
	if !ok {
		return nil, 0, false
	}
	if !e.ref.Load() {
		e.ref.Store(true)
	}
	return e.path, e.tag, true
}

// store inserts or overwrites k. An overwrite counts as a use; an
// insert into a full shard recycles the CLOCK victim instead of
// allocating. With gated set (PutTagged), that insert happens only
// when the doorkeeper has seen k before, and path, which the caller
// keeps, is copied only once it is stored. Called with sh.mu
// write-locked.
func (sh *cacheShard) store(k routeKey, path []gc.NodeID, tag uint32, gated bool) {
	e, ok := sh.table[k]
	if ok {
		e.ref.Store(true)
	} else {
		if len(sh.table) < sh.capacity {
			e = &cacheEntry{}
		} else if gated && !sh.seenBefore(k) {
			sh.declined.Add(1)
			return
		} else {
			e = sh.evict()
		}
		e.key = k
		sh.table[k] = e
		sh.pushFront(e)
	}
	if gated {
		path = slices.Clone(path)
	}
	e.path, e.tag = path, tag
}

// seenBefore reports whether the doorkeeper already holds k, marking it
// when it does not. The bitset has about 8 bits per entry (a power of
// two, at least one word) and each key sets two of them; it is cleared
// after capacity first sightings, so it remembers roughly the last
// shard's worth of declined keys. Called with sh.mu write-locked.
func (sh *cacheShard) seenBefore(k routeKey) bool {
	if sh.door == nil {
		words := 1
		for words*64 < 8*sh.capacity {
			words <<= 1
		}
		sh.door = make([]uint64, words)
	}
	h := uint64(k.s)*0x9e3779b97f4a7c15 ^ uint64(k.d)*0xc2b2ae3d27d4eb4f ^ uint64(uint16(k.tree))*0x165667b19e3779f9
	h ^= h >> 31
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 29
	mask := uint64(len(sh.door)*64 - 1)
	b1, b2 := h&mask, (h>>32)&mask
	w1, m1 := &sh.door[b1/64], uint64(1)<<(b1%64)
	w2, m2 := &sh.door[b2/64], uint64(1)<<(b2%64)
	if *w1&m1 != 0 && *w2&m2 != 0 {
		return true
	}
	*w1 |= m1
	*w2 |= m2
	if sh.fresh++; sh.fresh >= sh.capacity {
		clear(sh.door)
		sh.fresh = 0
	}
	return false
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

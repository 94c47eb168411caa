package serve

import (
	"sync"
	"sync/atomic"

	"gaussiancube/internal/gc"
)

// defaultCacheCapacity is the per-shard route-cache bound when
// Config.CacheCapacity is 0.
const defaultCacheCapacity = 4096

// routeCache is one shard's bounded cache of planned routes, keyed by
// (source, destination, multipath tree) and stamped with the fault
// state they were planned against. A hit takes no lock: GetTagged is
// one atomic load of the stamp, a scan of one bucket's key words and
// one load of the matching slot's entry pointer. The only shared word
// a hit may write is its slot's CLOCK reference bit, and only while
// that bit is clear, so a hot set's cache lines stay shared between
// readers.
//
// The table is a power-of-two array of cacheWays-way buckets with
// twice as many slots as the capacity, allocated by the first store.
// Each slot pairs a packed key word with a pointer to an immutable
// cacheEntry; the entry repeats the key, so a reader that sees a slot
// mid-store (key and pointer of different entries) misses rather than
// serving another pair's path.
// A key lives in its home bucket, or in the partner bucket (home^1)
// when home was full; home's spill flag then tells readers to scan
// the partner too.
//
// The stamp is {fingerprint, generation}. InvalidateTo publishes a new
// stamp with the next generation, and an entry is served only while
// its generation is the stamp's, to a caller whose token is the
// stamp's fingerprint. So a reader holding the old fault state misses
// as soon as the stamp moves, a reader holding the new one never sees
// an entry of an earlier generation, and an A→B→A fault toggle cannot
// bring back entries planned under the first A. The swap then nils
// every slot so the collector can free the old generation.
//
// Stores (PutTagged) and swaps are serialized by mu. A store whose
// token is not the stamp's fingerprint is dropped. A new key goes into
// a free slot while the cache holds fewer than capacity entries; past
// that, or with both of its buckets full, it is admitted only on its
// second sight (the doorkeeper, see seenBefore) and replaces the
// CLOCK victim of its home bucket.
type routeCache struct {
	stamp    atomic.Pointer[cacheStamp]
	shift    uint // 64 - log2(buckets): the home bucket is the hash's top bits
	alt      int  // a key homed at bucket h spills into h^alt (0 with one bucket)
	declined atomic.Int64

	mu       sync.Mutex    // serializes PutTagged and InvalidateTo
	buckets  []cacheBucket // the table; nil until the first store
	capacity int
	count    int // entries of the current generation
	// door is the admission doorkeeper, a bitset of hashed keys seen
	// once while the cache was full; nil until the first gated insert.
	// fresh counts the keys marked since its last clear, which comes
	// after capacity of them.
	door  []uint64
	fresh int
}

// cacheStamp is the fault state a cache serves: the fingerprint callers
// pass as their token, and the generation of the InvalidateTo that set
// it. It also carries the table to readers (nil before the first
// store).
type cacheStamp struct {
	fp, gen uint64
	buckets []cacheBucket
}

// cacheEntry is one cached route. It is never modified once published,
// so a reader needs no lock to use it; path is shared read-only.
type cacheEntry struct {
	key  uint64
	gen  uint64
	tag  uint32
	path []gc.NodeID
}

// newEntry builds an entry holding a copy of path. A path of up to 24
// nodes is stored in the same object, in an array rounded up to a
// multiple of 4 nodes: the object is then exactly the size of an entry
// and a separately allocated path together, a store allocates once, and
// a hit reads one object.
func newEntry(key, gen uint64, tag uint32, path []gc.NodeID) *cacheEntry {
	var e *cacheEntry
	var buf []gc.NodeID
	switch n := len(path); {
	case n <= 4:
		x := new(struct {
			cacheEntry
			a [4]gc.NodeID
		})
		e, buf = &x.cacheEntry, x.a[:n]
	case n <= 8:
		x := new(struct {
			cacheEntry
			a [8]gc.NodeID
		})
		e, buf = &x.cacheEntry, x.a[:n]
	case n <= 12:
		x := new(struct {
			cacheEntry
			a [12]gc.NodeID
		})
		e, buf = &x.cacheEntry, x.a[:n]
	case n <= 16:
		x := new(struct {
			cacheEntry
			a [16]gc.NodeID
		})
		e, buf = &x.cacheEntry, x.a[:n]
	case n <= 20:
		x := new(struct {
			cacheEntry
			a [20]gc.NodeID
		})
		e, buf = &x.cacheEntry, x.a[:n]
	case n <= 24:
		x := new(struct {
			cacheEntry
			a [24]gc.NodeID
		})
		e, buf = &x.cacheEntry, x.a[:n]
	default:
		e, buf = new(cacheEntry), make([]gc.NodeID, n)
	}
	copy(buf, path)
	e.key, e.gen, e.tag, e.path = key, gen, tag, buf
	return e
}

const cacheWays = 16

type cacheBucket struct {
	keys [cacheWays]atomic.Uint64
	ents [cacheWays]atomic.Pointer[cacheEntry]
	ref  atomic.Uint32 // CLOCK reference bits, one per way
	// spill is set when a key whose home is this bucket was stored in
	// the partner bucket; cleared by InvalidateTo.
	spill atomic.Bool
	hand  uint8 // next way the eviction sweep looks at; guarded by routeCache.mu
}

// testHookInvalidateAfterStamp, when non-nil, runs inside InvalidateTo
// between publishing the new stamp and nilling the old generation's
// slots, so a test can probe the cache while old entries are still in
// place.
var testHookInvalidateAfterStamp func()

// newRouteCache builds a cache of at most capacity entries (at least
// one), stamped with fingerprint 0.
func newRouteCache(capacity int) *routeCache {
	capacity = max(capacity, 1)
	nb, bits := 1, uint(0)
	for nb*cacheWays < 2*capacity {
		nb <<= 1
		bits++
	}
	c := &routeCache{shift: 64 - bits, alt: min(nb-1, 1), capacity: capacity}
	c.stamp.Store(&cacheStamp{})
	return c
}

// packKey packs (s, d, tree) into one word: node IDs take 26 bits each
// (gc caps n at 26) and tree+1 the low 12. A key beyond those ranges is
// not cacheable.
func packKey(s, d gc.NodeID, tree int) (uint64, bool) {
	if s >= 1<<26 || d >= 1<<26 || tree < -1 || tree >= 1<<12-1 {
		return 0, false
	}
	return uint64(s)<<38 | uint64(d)<<12 | uint64(tree+1), true
}

// home returns the index of k's home bucket (Fibonacci hashing).
func (c *routeCache) home(k uint64) int {
	return int((k * 0x9e3779b97f4a7c15) >> c.shift)
}

// GetTagged returns the path and tag cached for (s, d) on tree (-1
// single-tree) when the cache is stamped with token, the fault
// fingerprint the caller plans against. The path is shared; callers
// must not modify it.
func (c *routeCache) GetTagged(s, d gc.NodeID, tree int, token uint64) ([]gc.NodeID, uint32, bool) {
	k, ok := packKey(s, d, tree)
	st := c.stamp.Load()
	if !ok || st.fp != token || st.buckets == nil {
		return nil, 0, false
	}
	b, way, e := c.slot(st.buckets, k, c.home(k), st.gen)
	if e == nil {
		return nil, 0, false
	}
	b.setRef(way)
	return e.path, e.tag, true
}

// slot returns the bucket of tab, way and entry holding k's route of
// generation gen (home bucket h first, then its partner if h has
// spilled), or a nil entry.
func (c *routeCache) slot(tab []cacheBucket, k uint64, h int, gen uint64) (*cacheBucket, int, *cacheEntry) {
	b := &tab[h]
	for {
		for i := range b.keys {
			if b.keys[i].Load() != k {
				continue
			}
			if e := b.ents[i].Load(); e != nil && e.key == k && e.gen == gen {
				return b, i, e
			}
		}
		if b != &tab[h] || !b.spill.Load() {
			return nil, -1, nil
		}
		b = &tab[h^c.alt]
	}
}

// setRef sets way i's reference bit, writing only when it is clear.
// (A CAS loop rather than atomic Or, which Go 1.22 lacks.)
func (b *cacheBucket) setRef(i int) {
	bit := uint32(1) << i
	for r := b.ref.Load(); r&bit == 0; r = b.ref.Load() {
		if b.ref.CompareAndSwap(r, r|bit) {
			return
		}
	}
}

// clearRef clears way i's reference bit and reports whether it was set.
func (b *cacheBucket) clearRef(i int) bool {
	bit := uint32(1) << i
	for {
		r := b.ref.Load()
		if r&bit == 0 {
			return false
		}
		if b.ref.CompareAndSwap(r, r&^bit) {
			return true
		}
	}
}

// PutTagged stores path with a caller-defined tag word under (s, d,
// tree), but only when the cache is still stamped with token: a store
// racing a fault swap is dropped rather than poisoning the new state
// with a stale plan. The cache stores its own copy of path, so the
// caller may reuse it. A new key is admitted into a full cache only on
// its second sight; a declined store allocates nothing and counts in
// Declined.
func (c *routeCache) PutTagged(s, d gc.NodeID, tree int, path []gc.NodeID, tag uint32, token uint64) {
	k, ok := packKey(s, d, tree)
	if !ok {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stamp.Load()
	if st.fp != token {
		return
	}
	if c.buckets == nil {
		c.buckets = make([]cacheBucket, 1<<(64-c.shift))
		c.stamp.Store(&cacheStamp{fp: st.fp, gen: st.gen, buckets: c.buckets})
	}
	h := c.home(k)
	b, way, old := c.slot(c.buckets, k, h, st.gen)
	if old != nil {
		b.setRef(way) // an overwrite counts as a use
	} else {
		if c.count < c.capacity {
			b, way = c.freeWay(h)
		}
		if way >= 0 {
			c.count++
		} else if !c.seenBefore(k) {
			c.declined.Add(1)
			return
		} else if b, way = &c.buckets[h], c.buckets[h].sweep(); way < 0 {
			return // an empty home bucket in a full cache: nothing to replace
		}
		b.clearRef(way)
		if b != &c.buckets[h] {
			c.buckets[h].spill.Store(true)
		}
	}
	b.ents[way].Store(newEntry(k, st.gen, tag, path))
	b.keys[way].Store(k)
}

// freeWay returns an empty way in home bucket h, else in its partner,
// or way -1. Called with c.mu held.
func (c *routeCache) freeWay(h int) (*cacheBucket, int) {
	for _, i := range [2]int{h, h ^ c.alt} {
		b := &c.buckets[i]
		for w := range b.ents {
			if b.ents[w].Load() == nil {
				return b, w
			}
		}
	}
	return nil, -1
}

// sweep advances b's hand over its occupied ways as a CLOCK ring and
// returns the first unreferenced one, clearing the bits it passes (a
// referenced entry's second chance). Readers may set bits behind the
// hand, so after two laps it takes the last occupied way it saw; -1
// means b is empty. Called with c.mu held.
func (b *cacheBucket) sweep() int {
	last := -1
	for n := 0; n < 2*cacheWays; n++ {
		i := int(b.hand)
		b.hand = (b.hand + 1) % cacheWays
		if b.ents[i].Load() == nil {
			continue
		}
		last = i
		if !b.clearRef(i) {
			return i
		}
	}
	return last
}

// seenBefore reports whether the doorkeeper already holds k, marking it
// when it does not. The bitset has about 8 bits per entry (a power of
// two, at least one word) and each key sets two of them; it is cleared
// after capacity first sightings, so it remembers roughly the last
// cache's worth of declined keys. Called with c.mu held.
func (c *routeCache) seenBefore(k uint64) bool {
	if c.door == nil {
		words := 1
		for words*64 < 8*c.capacity {
			words <<= 1
		}
		c.door = make([]uint64, words)
	}
	h := k * 0x9e3779b97f4a7c15
	h ^= h >> 31
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 29
	mask := uint64(len(c.door)*64 - 1)
	b1, b2 := h&mask, (h>>32)&mask
	w1, m1 := &c.door[b1/64], uint64(1)<<(b1%64)
	w2, m2 := &c.door[b2/64], uint64(1)<<(b2%64)
	if *w1&m1 != 0 && *w2&m2 != 0 {
		return true
	}
	*w1 |= m1
	*w2 |= m2
	if c.fresh++; c.fresh >= c.capacity {
		clear(c.door)
		c.fresh = 0
	}
	return false
}

// InvalidateTo stamps the cache with the fault fingerprint its next
// routes are planned against. When fp differs from the current stamp it
// publishes a new generation first — from then on no entry stored
// before is served — then nils every slot so the old routes can be
// collected, and reports true. Stamping with the current fingerprint
// is a no-op.
func (c *routeCache) InvalidateTo(fp uint64) bool {
	if c.stamp.Load().fp == fp {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stamp.Load()
	if st.fp == fp {
		return false
	}
	c.stamp.Store(&cacheStamp{fp: fp, gen: st.gen + 1, buckets: c.buckets})
	if testHookInvalidateAfterStamp != nil {
		testHookInvalidateAfterStamp()
	}
	if c.count > 0 {
		for i := range c.buckets {
			b := &c.buckets[i]
			for w := range b.ents {
				if b.ents[w].Load() != nil {
					b.ents[w].Store(nil)
				}
			}
			b.ref.Store(0)
			b.spill.Store(false)
		}
	}
	c.count = 0
	clear(c.door)
	c.fresh = 0
	return true
}

// Declined returns how many PutTagged inserts the doorkeeper refused.
func (c *routeCache) Declined() int64 { return c.declined.Load() }

// Len returns the number of cached routes of the current generation.
func (c *routeCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.count
}

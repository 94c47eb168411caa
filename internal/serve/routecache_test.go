package serve

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"gaussiancube/internal/gc"
)

// TestRouteCacheAdmission pins PutTagged's doorkeeper: a full cache
// declines a key on its first sight and admits it on its second, an
// overwrite always lands, the doorkeeper forgets after capacity first
// sightings, a stale-token write is dropped before admission, and an
// invalidated (empty) cache admits everything again.
func TestRouteCacheAdmission(t *testing.T) {
	const token = 3
	c := newRouteCache(2) // two entries, one bucket
	c.InvalidateTo(token)
	k := func(i int) gc.NodeID { return gc.NodeID(16 * i) }
	put := func(i int, tag uint32) { c.PutTagged(k(i), 1, -1, []gc.NodeID{k(i)}, tag, token) }
	has := func(i int) bool { _, _, ok := c.GetTagged(k(i), 1, -1, token); return ok }
	declined := func(step string, want int64) {
		t.Helper()
		if got := c.Declined(); got != want {
			t.Fatalf("%s: Declined = %d, want %d", step, got, want)
		}
	}

	put(1, 0)
	put(2, 0)
	declined("fill", 0)
	if len(c.buckets) != 1 {
		t.Fatalf("%d buckets, want 1", len(c.buckets))
	}
	if !has(1) || !has(2) {
		t.Fatal("a cache with free slots declined a store")
	}
	put(3, 0)
	if has(3) {
		t.Fatal("a full cache admitted a key on its first sight")
	}
	declined("first sight", 1)
	put(3, 0)
	if !has(3) {
		t.Fatal("a full cache declined a key on its second sight")
	}
	declined("second sight", 1)
	if c.Len() != 2 {
		t.Fatalf("Len = %d after an admitted insert, want 2", c.Len())
	}

	put(3, 7)
	if _, tag, ok := c.GetTagged(k(3), 1, -1, token); !ok || tag != 7 {
		t.Fatalf("overwrite lost: ok=%v tag=%d", ok, tag)
	}
	declined("overwrite", 1)

	// k3's first sight was one first sighting; k4's is the second, which
	// reaches capacity and clears the bitset, so k4 itself is forgotten.
	put(4, 0)
	declined("capacity first sightings", 2)
	put(4, 0)
	if has(4) {
		t.Fatal("doorkeeper remembered a key across its reset")
	}
	declined("after reset", 3)
	put(4, 0)
	if !has(4) {
		t.Fatal("doorkeeper forgot a key seen after its reset")
	}

	c.PutTagged(k(6), 1, -1, []gc.NodeID{0}, 0, token+1)
	c.PutTagged(k(6), 1, -1, []gc.NodeID{0}, 0, token+1)
	if has(6) {
		t.Fatal("stale-token PutTagged stored")
	}
	declined("stale token", 3)

	c.InvalidateTo(token + 1)
	for i := 1; i <= 2; i++ {
		c.PutTagged(k(i), 1, -1, []gc.NodeID{k(i)}, 0, token+1)
		if _, _, ok := c.GetTagged(k(i), 1, -1, token+1); !ok {
			t.Fatalf("invalidated cache declined key %d", i)
		}
	}
	declined("after InvalidateTo", 3)
}

// TestRouteCacheSpill: keys that overflow their home bucket while the
// cache has room are stored in the partner bucket and served from it,
// without a decline; the swap clears the spill flag.
func TestRouteCacheSpill(t *testing.T) {
	c := newRouteCache(64)
	var keys []gc.NodeID
	for s := gc.NodeID(0); len(keys) < cacheWays+4; s++ {
		if k, _ := packKey(s, 1, -1); c.home(k) == 0 {
			keys = append(keys, s)
		}
	}
	for _, s := range keys {
		c.PutTagged(s, 1, -1, []gc.NodeID{s, 1}, 0, 0)
	}
	for _, s := range keys {
		if p, _, ok := c.GetTagged(s, 1, -1, 0); !ok || p[0] != s {
			t.Fatalf("key %d: hit %v %v", s, p, ok)
		}
	}
	if c.Declined() != 0 || c.Len() != len(keys) {
		t.Fatalf("declined %d, Len %d, want 0 and %d", c.Declined(), c.Len(), len(keys))
	}
	if !c.buckets[0].spill.Load() {
		t.Fatal("home bucket overflowed without its spill flag")
	}
	c.InvalidateTo(1)
	if c.buckets[0].spill.Load() {
		t.Fatal("spill flag survived a swap")
	}
}

// TestRouteCacheGenerations pins the generation stamp: inside a swap's
// stamp-to-nil window neither the old nor the new fingerprint is served
// an old entry; after an A→B→A fingerprint sequence no entry stored
// under the first A is served, even one still in its slot; a PutTagged
// with a stale token is dropped; a swap leaves Len 0 and every slot
// nil; and a hit allocates nothing.
func TestRouteCacheGenerations(t *testing.T) {
	const a, b = 11, 22
	const pairs = 32
	c := newRouteCache(64)
	c.InvalidateTo(a)
	for i := 0; i < pairs; i++ {
		c.PutTagged(gc.NodeID(i), 1, -1, []gc.NodeID{gc.NodeID(i), 1}, 1, a)
	}
	if c.Len() != pairs {
		t.Fatalf("Len = %d, want %d", c.Len(), pairs)
	}
	type slotRef struct {
		b, w int
		e    *cacheEntry
	}
	var first []slotRef
	for bi := range c.buckets {
		for w := range c.buckets[bi].ents {
			if e := c.buckets[bi].ents[w].Load(); e != nil {
				first = append(first, slotRef{bi, w, e})
			}
		}
	}
	served := func(token uint64) (n int) {
		for i := 0; i < pairs; i++ {
			if _, _, ok := c.GetTagged(gc.NodeID(i), 1, -1, token); ok {
				n++
			}
		}
		return n
	}
	missAll := func(step string, token uint64) {
		t.Helper()
		if n := served(token); n > 0 {
			t.Fatalf("%s: %d pairs served under token %d", step, n, token)
		}
	}

	// The hook runs with the cache's mutex held, so it only records.
	window := [2]int{-1, -1}
	testHookInvalidateAfterStamp = func() { window = [2]int{served(a), served(b)} }
	defer func() { testHookInvalidateAfterStamp = nil }()
	c.InvalidateTo(b)
	testHookInvalidateAfterStamp = nil
	if window != [2]int{0, 0} {
		t.Fatalf("stamp-to-nil window served %d pairs under the old token, %d under the new (-1: hook never fired)", window[0], window[1])
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d right after a swap, want 0", c.Len())
	}
	for _, s := range first {
		if c.buckets[s.b].ents[s.w].Load() != nil {
			t.Fatalf("slot %d/%d still holds an old-generation entry", s.b, s.w)
		}
	}

	c.PutTagged(0, 1, -1, []gc.NodeID{0, 1}, 1, a)
	if c.Len() != 0 {
		t.Fatal("stale-token PutTagged stored")
	}
	missAll("stale token", a)
	missAll("stale token", b)

	c.InvalidateTo(a)
	missAll("A→B→A", a)
	// Put the first A's entries back where they lived, as if the swap
	// had not nilled them: the fingerprint matches, the generation not.
	for _, s := range first {
		c.buckets[s.b].ents[s.w].Store(s.e)
		c.buckets[s.b].keys[s.w].Store(s.e.key)
	}
	missAll("A→B→A with old entries in place", a)
	c.PutTagged(pairs, 1, -1, []gc.NodeID{pairs, 1}, 2, a)
	if p, tag, ok := c.GetTagged(pairs, 1, -1, a); !ok || tag != 2 || p[0] != pairs {
		t.Fatalf("second A's own entry: %v tag %d ok %v", p, tag, ok)
	}
	missAll("A→B→A beside a new entry", a)

	if n := testing.AllocsPerRun(100, func() { c.GetTagged(pairs, 1, -1, a) }); n != 0 {
		t.Fatalf("a hit allocates %.1f times", n)
	}
}

// TestRouteCacheTreeIsolation: an entry stored under one multipath
// tree is invisible to every other tree and to the single-tree view,
// and a tree beyond the packed key's range is never cached.
func TestRouteCacheTreeIsolation(t *testing.T) {
	c := newRouteCache(64)
	p0 := []gc.NodeID{1, 3, 2}
	c.PutTagged(1, 2, 2, p0, 7, 0)
	if _, _, ok := c.GetTagged(1, 2, 3, 0); ok {
		t.Fatal("tagged lookup crossed tree boundary")
	}
	if _, _, ok := c.GetTagged(1, 2, -1, 0); ok {
		t.Fatal("single-tree view sees a path cached by tree 2")
	}
	if _, tag, ok := c.GetTagged(1, 2, 2, 0); !ok || tag != 7 {
		t.Fatalf("tagged entry lost on its own tree: tag=%d ok=%v", tag, ok)
	}
	c.PutTagged(1, 2, 1<<12, p0, 7, 0)
	if _, _, ok := c.GetTagged(1, 2, 1<<12, 0); ok || c.Len() != 1 {
		t.Fatalf("out-of-range tree cached: ok=%v Len=%d", ok, c.Len())
	}
}

// TestRouteCacheEpochSoak races token-checked hits against fault swaps
// on a cache small enough that CLOCK sweeps run throughout (run under
// -race in CI). A writer alternates InvalidateTo and PutTagged of paths
// specific to each token, recording them before the stamp, and
// publishes each token only once InvalidateTo returns, as the serving
// layer's fault swap does; readers call GetTagged with the token they
// loaded. Every hit must return exactly the path and tag put under its
// own token: a hit served across a swap or from a replaced entry would
// carry another token's path.
func TestRouteCacheEpochSoak(t *testing.T) {
	const (
		pairs   = 96
		epochs  = 200
		readers = 4
	)
	c := newRouteCache(64)
	var (
		mu      sync.RWMutex
		want    = map[uint64][][]gc.NodeID{}
		current atomic.Uint64
	)
	stop := make(chan struct{})
	go func() {
		defer close(stop)
		rng := rand.New(rand.NewSource(5))
		for token := uint64(1); token <= epochs; token++ {
			paths := make([][]gc.NodeID, pairs)
			for i := range paths {
				paths[i] = []gc.NodeID{gc.NodeID(i), gc.NodeID(rng.Intn(1 << 20)), gc.NodeID(token)}
			}
			mu.Lock()
			want[token] = paths
			mu.Unlock()
			c.InvalidateTo(token)
			current.Store(token)
			for round := 0; round < 3; round++ {
				for i := range paths {
					c.PutTagged(gc.NodeID(i), 0, -1, paths[i], uint32(token), token)
				}
			}
		}
	}()

	var wg sync.WaitGroup
	var hits atomic.Int64
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				token := current.Load()
				i := rng.Intn(pairs)
				path, tag, ok := c.GetTagged(gc.NodeID(i), 0, -1, token)
				if !ok {
					continue
				}
				hits.Add(1)
				mu.RLock()
				exp := want[token]
				mu.RUnlock()
				if tag != uint32(token) || len(path) != 3 ||
					path[0] != exp[i][0] || path[1] != exp[i][1] || path[2] != exp[i][2] {
					t.Errorf("token %d pair %d: hit %v tag %d, want %v tag %d", token, i, path, tag, exp[i], token)
					return
				}
			}
		}(int64(r + 1))
	}
	wg.Wait()
	if hits.Load() == 0 {
		t.Fatal("soak served no hits")
	}
	if c.Len() > 64 {
		t.Fatalf("cache grew past its bound: %d", c.Len())
	}
}

// BenchmarkRouteCacheParallel measures token-checked hits over a warmed
// route cache from parallel readers, the lookup the serving fast path
// makes per request. A hit takes no lock and allocates nothing.
func BenchmarkRouteCacheParallel(b *testing.B) {
	const token = 7
	c := newRouteCache(1 << 16)
	c.InvalidateTo(token)
	rng := rand.New(rand.NewSource(42))
	keys := make([][2]gc.NodeID, 4096)
	for i := range keys {
		keys[i] = [2]gc.NodeID{gc.NodeID(rng.Intn(1 << 10)), gc.NodeID(rng.Intn(1 << 10))}
		c.PutTagged(keys[i][0], keys[i][1], -1, []gc.NodeID{keys[i][0], keys[i][1]}, 0, token)
	}
	var seed atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(seed.Add(1)) * 977
		for pb.Next() {
			k := keys[i%len(keys)]
			i++
			if _, _, ok := c.GetTagged(k[0], k[1], -1, token); !ok {
				b.Error("warmed key missed")
				return
			}
		}
	})
}

// BenchmarkRouteCachePutTaggedFull measures PutTagged on an all-miss
// stream into a full cache, the store a serving goroutine makes after
// planning a pair that never recurs: each op is a key not seen before.
func BenchmarkRouteCachePutTaggedFull(b *testing.B) {
	const token = 7
	c := newRouteCache(1 << 12)
	c.InvalidateTo(token)
	path := []gc.NodeID{0, 1}
	for i := 0; i < 1<<14; i++ {
		c.PutTagged(gc.NodeID(i), 1, -1, path, 0, token)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.PutTagged(gc.NodeID(i), 2, -1, path, 0, token)
	}
}

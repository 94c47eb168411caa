package simnet

import (
	"sync"
	"testing"

	"gaussiancube/internal/gc"
)

// TestRouteCacheLRU: the per-shard bound evicts the least recently used
// entry, and Get refreshes recency.
func TestRouteCacheLRU(t *testing.T) {
	c := NewRouteCache(1) // one entry per shard
	// Three keys landing in the same shard: identical (s*K1 ^ d*K2) mod 16
	// is guaranteed by spacing s by multiples of 16.
	k1 := routeKey{s: 0, d: 1}
	k2 := routeKey{s: 16, d: 1}
	k3 := routeKey{s: 32, d: 1}
	if c.shard(k1) != c.shard(k2) || c.shard(k2) != c.shard(k3) {
		t.Fatal("test keys do not share a shard")
	}
	path := func(n gc.NodeID) []gc.NodeID { return []gc.NodeID{n} }

	c.Put(k1.s, k1.d, path(1))
	c.Put(k2.s, k2.d, path(2)) // evicts k1
	if _, ok := c.Get(k1.s, k1.d); ok {
		t.Fatal("k1 survived eviction")
	}
	if p, ok := c.Get(k2.s, k2.d); !ok || p[0] != 2 {
		t.Fatal("k2 missing after insert")
	}
	if got := c.Len(); got != 1 {
		t.Fatalf("Len = %d, want 1", got)
	}

	// With room for two, a Get must refresh recency.
	c2 := NewRouteCache(2 * cacheShards)
	c2.Put(k1.s, k1.d, path(1))
	c2.Put(k2.s, k2.d, path(2))
	c2.Get(k1.s, k1.d)          // k1 now most recent
	c2.Put(k3.s, k3.d, path(3)) // must evict k2, not k1
	if _, ok := c2.Get(k1.s, k1.d); !ok {
		t.Fatal("recently used k1 was evicted")
	}
	if _, ok := c2.Get(k2.s, k2.d); ok {
		t.Fatal("least recently used k2 survived")
	}

	// Overwriting an existing key must not grow the cache.
	c2.Put(k1.s, k1.d, path(9))
	if p, ok := c2.Get(k1.s, k1.d); !ok || p[0] != 9 {
		t.Fatal("overwrite lost")
	}
	if got := c2.Len(); got != 2 {
		t.Fatalf("Len = %d after overwrite, want 2", got)
	}
}

// TestRouteCacheSecondChance pins the CLOCK victim order: a full
// shard's sweep starts at the tail, gives each referenced entry a
// second chance (bit cleared, moved to the head) and recycles the first
// unreferenced one. The order differs from LRU's: after hits on k2 then
// k1, LRU would next evict k2, CLOCK evicts k1.
func TestRouteCacheSecondChance(t *testing.T) {
	c := NewRouteCache(3 * cacheShards) // three entries per shard
	k := func(i int) routeKey { return routeKey{s: gc.NodeID(16 * i), d: 1, tree: -1} }
	sh := c.shard(k(1))
	for i := 2; i <= 6; i++ {
		if c.shard(k(i)) != sh {
			t.Fatal("test keys do not share a shard")
		}
	}
	put := func(i int) { c.Put(k(i).s, k(i).d, []gc.NodeID{k(i).s}) }
	// ring lists the shard head to tail, one test-key index per entry,
	// without touching any reference bit.
	ring := func() []int {
		var out []int
		for e := sh.head; e != nil; e = e.next {
			out = append(out, int(e.key.s)/16)
		}
		return out
	}
	want := func(step string, order ...int) {
		t.Helper()
		got := ring()
		if len(got) != len(order) {
			t.Fatalf("%s: ring %v, want %v", step, got, order)
		}
		for i := range got {
			if got[i] != order[i] {
				t.Fatalf("%s: ring %v, want %v", step, got, order)
			}
		}
	}

	put(1)
	put(2)
	put(3)
	want("fill", 3, 2, 1)
	c.Get(k(2).s, k(2).d)
	c.Get(k(1).s, k(1).d)
	put(4) // k1 and k2 get their second chance; k3 is the victim
	want("first sweep", 4, 2, 1)
	put(5) // every bit is clear again: the tail, k1, goes
	want("second sweep", 5, 4, 2)
	c.Get(k(2).s, k(2).d)
	put(6) // k2 is spared once more, k4 goes
	want("third sweep", 6, 2, 5)
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
}

// TestRouteCacheConcurrent hammers one cache from many goroutines (run
// under -race in CI).
func TestRouteCacheConcurrent(t *testing.T) {
	c := NewRouteCache(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s := gc.NodeID((w*131 + i) % 97)
				d := gc.NodeID(i % 89)
				if p, ok := c.Get(s, d); ok {
					if p[0] != s || p[1] != d {
						t.Errorf("cache returned wrong path for (%d,%d): %v", s, d, p)
						return
					}
				} else {
					c.Put(s, d, []gc.NodeID{s, d})
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 64+cacheShards {
		t.Fatalf("cache grew past its bound: %d", c.Len())
	}
}

// TestRunSharedCacheDeterministic: sharing a RouteCache across
// sequential fault-free runs must not change any routing statistic —
// a hit returns exactly the path a fresh computation would.
func TestRunSharedCacheDeterministic(t *testing.T) {
	base := Config{N: 8, Alpha: 1, Arrival: 0.05, GenCycles: 30, Seed: 11}

	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	shared := NewRouteCache(DefaultRouteCacheCapacity)
	var warm *Stats
	for i := 0; i < 2; i++ {
		cfg := base
		cfg.RouteCache = shared
		warm, err = Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
	}
	// The second shared run starts with a warm cache; everything but the
	// hit counter must match the uncached run.
	if warm.Generated != plain.Generated || warm.Delivered != plain.Delivered ||
		warm.Makespan != plain.Makespan || warm.Measured != plain.Measured {
		t.Fatalf("shared-cache run diverged: %+v vs %+v", warm, plain)
	}
	if warm.Latency.Mean() != plain.Latency.Mean() || warm.Hops.Mean() != plain.Hops.Mean() {
		t.Fatalf("shared-cache latency/hops diverged: %v/%v vs %v/%v",
			warm.Latency.Mean(), warm.Hops.Mean(), plain.Latency.Mean(), plain.Hops.Mean())
	}
	if warm.RouteCacheHits == 0 {
		t.Fatal("warm shared cache produced no hits")
	}
}

// TestRouteCacheEpochInvalidation: InvalidateTo flushes entries exactly
// when the fault-state token changes, counts each flush, and is a
// no-op when re-stamped with the current token.
func TestRouteCacheEpochInvalidation(t *testing.T) {
	c := NewRouteCache(64)
	path := []gc.NodeID{0, 1, 3}
	c.Put(0, 3, path)
	if c.Epoch() != 0 {
		t.Fatalf("fresh cache epoch = %d, want 0", c.Epoch())
	}
	if c.InvalidateTo(0) {
		t.Fatal("re-stamping the current token must be a no-op")
	}
	if _, ok := c.Get(0, 3); !ok {
		t.Fatal("no-op stamp dropped entries")
	}
	if !c.InvalidateTo(0xdead) {
		t.Fatal("a new token must invalidate")
	}
	if _, ok := c.Get(0, 3); ok {
		t.Fatal("entry survived an epoch transition")
	}
	if c.Epoch() != 0xdead || c.Invalidations() != 1 {
		t.Fatalf("epoch=%#x invalidations=%d, want 0xdead/1", c.Epoch(), c.Invalidations())
	}
	c.Put(0, 3, path)
	if c.InvalidateTo(0xdead) {
		t.Fatal("same token twice must not flush again")
	}
	if c.Len() != 1 || c.Invalidations() != 1 {
		t.Fatalf("len=%d invalidations=%d after no-op stamp", c.Len(), c.Invalidations())
	}
}

// TestRouteCacheEpochConcurrent: concurrent stampers racing over the
// same token sequence settle on the last token with one flush per
// distinct transition at most; readers never crash on a mid-flush map.
func TestRouteCacheEpochConcurrent(t *testing.T) {
	c := NewRouteCache(256)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c.Put(gc.NodeID(id), gc.NodeID(i%32), []gc.NodeID{gc.NodeID(id)})
				c.Get(gc.NodeID(id), gc.NodeID(i%32))
				if i%50 == 0 {
					c.InvalidateTo(uint64(i / 50))
				}
			}
		}(w)
	}
	wg.Wait()
	if got := c.Epoch(); got > 9 {
		t.Fatalf("epoch settled on unexpected token %d", got)
	}
}

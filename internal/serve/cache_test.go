package serve

import (
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"testing"

	"pathrank/internal/api"
)

// check walks the slab and fails t unless the lists, the segment counts,
// the segment capacities and the index all agree.
func (c *resultCache) check(t testing.TB) {
	t.Helper()
	seen := make([]bool, len(c.slots))
	for seg := range int32(segments) {
		n := 0
		for i := c.slots[seg].next; i != seg; i = c.slots[i].next {
			switch {
			case i < segments || int(i) >= len(c.slots):
				t.Fatalf("segment %d links to slot %d", seg, i)
			case seen[i]:
				t.Fatalf("slot %d is linked twice", i)
			case c.slots[c.slots[i].next].prev != i:
				t.Fatalf("slot %d: next's prev is %d", i, c.slots[c.slots[i].next].prev)
			case c.slots[i].seg != uint8(seg):
				t.Fatalf("slot %d on segment %d's list says segment %d", i, seg, c.slots[i].seg)
			}
			if j, ok := c.index[c.slots[i].key]; !ok || j != i {
				t.Fatalf("slot %d's key indexes slot %d (present %v)", i, j, ok)
			}
			seen[i] = true
			n++
		}
		if c.slots[c.slots[seg].next].prev != seg {
			t.Fatalf("segment %d's sentinel links are broken", seg)
		}
		if n != c.size[seg] {
			t.Fatalf("segment %d holds %d entries, counted %d", seg, n, c.size[seg])
		}
	}
	if entries := len(c.slots) - segments; len(c.index) != entries {
		t.Fatalf("index holds %d keys, slab %d entries", len(c.index), entries)
	}
	if c.size[window] > c.winCap || c.size[probation]+c.size[protected] > c.mainCap || c.size[protected] > c.protCap {
		t.Fatalf("segments %v exceed window %d, main %d, protected %d", c.size, c.winCap, c.mainCap, c.protCap)
	}
}

// refLRU is a reference least-recently-used cache of keys alone: the policy
// the result cache replaced, written for obviousness, not speed.
type refLRU struct {
	capacity int
	tick     int
	used     map[queryKey]int // key → time of its last use
}

func newRefLRU(capacity int) *refLRU {
	return &refLRU{capacity: capacity, used: make(map[queryKey]int)}
}

// access looks key up and inserts it on a miss, as a server does, and
// reports whether it hit.
func (r *refLRU) access(key queryKey) bool {
	r.tick++
	_, hit := r.used[key]
	r.used[key] = r.tick
	if len(r.used) > r.capacity {
		oldest, at := queryKey{}, r.tick
		for k, t := range r.used {
			if t < at {
				oldest, at = k, t
			}
		}
		delete(r.used, oldest)
	}
	return hit
}

// access is refLRU.access on the result cache.
func (c *resultCache) access(key queryKey) bool {
	if _, ok := c.get(key); ok {
		return true
	}
	c.add(key, nil)
	return false
}

func intKey(i int) queryKey { return queryKey{src: 7, dst: 11, k: 5, maxProbe: i} }

// zipfKeys is a seeded Zipf(1.3) request stream over n keys.
func zipfKeys(seed int64, n, length int) []queryKey {
	z := rand.NewZipf(rand.New(rand.NewSource(seed)), 1.3, 1, uint64(n-1))
	keys := make([]queryKey, length)
	for i := range keys {
		keys[i] = intKey(int(z.Uint64()))
	}
	return keys
}

// TestCacheScanResistance: a hot set that is asked for repeatedly survives
// a scan of more than the capacity in one-off keys, which flushes an LRU.
func TestCacheScanResistance(t *testing.T) {
	const capacity, hot, rounds, scan = 100, 20, 8, 2 * 100
	c, ref := newResultCache(capacity), newRefLRU(capacity)
	for round := 0; round < rounds; round++ {
		for i := 0; i < hot; i++ {
			c.access(intKey(i))
			ref.access(intKey(i))
		}
	}
	for i := hot; i < hot+scan; i++ {
		c.access(intKey(i))
		ref.access(intKey(i))
	}
	c.check(t)
	for i := 0; i < hot; i++ {
		if _, ok := c.get(intKey(i)); !ok {
			t.Fatalf("hot key %d was evicted by the scan", i)
		}
		if ref.access(intKey(i)) {
			t.Fatalf("the reference LRU kept hot key %d: the scan is too short to test anything", i)
		}
	}
}

// TestCacheBounded: len never exceeds the capacity, the slab stays
// consistent, and a hit returns the value last added for its key, after
// every operation: at capacities 1-3, where a segment holds one entry or
// none, and at 100.
func TestCacheBounded(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 100} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			c := newResultCache(capacity)
			rng := rand.New(rand.NewSource(int64(capacity)))
			last := make(map[queryKey]byte)
			for op := 0; op < 5000; op++ {
				key := intKey(rng.Intn(3*capacity + 4))
				if rng.Intn(2) == 0 {
					if v, ok := c.get(key); ok && (len(v) != 1 || v[0] != last[key]) {
						t.Fatalf("op %d: get returned %v, last added %d", op, v, last[key])
					}
				} else {
					last[key] = byte(op)
					c.add(key, []byte{byte(op)})
				}
				c.check(t)
				if c.len() > capacity {
					t.Fatalf("op %d: len %d over capacity %d", op, c.len(), capacity)
				}
			}
		})
	}
}

// TestCacheConcurrent: goroutines sharing one cache, as a batch's items
// and concurrent requests do, leave the slab consistent (and, under -race,
// show no unsynchronized access).
func TestCacheConcurrent(t *testing.T) {
	c := newResultCache(64)
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, k := range zipfKeys(int64(g), 256, 5000) {
				c.access(k)
			}
		}()
	}
	wg.Wait()
	c.check(t)
	if c.len() != 64 {
		t.Fatalf("len %d after filling a 64-entry cache", c.len())
	}
}

// TestCacheDeterministic: two fresh caches fed one sequence hit and miss
// alike — the sketch hashes with no seed, so a replay is exact in every
// process too (TestCacheBeatsLRUOnZipf pins the counts).
func TestCacheDeterministic(t *testing.T) {
	keys := zipfKeys(3, 512, 20000)
	a, b := newResultCache(128), newResultCache(128)
	for i, k := range keys {
		if ha, hb := a.access(k), b.access(k); ha != hb {
			t.Fatalf("request %d: caches disagree (%v vs %v)", i, ha, hb)
		}
	}
}

// TestCacheBeatsLRUOnZipf replays a seeded Zipf(1.3) stream over twice as
// many keys as the capacity against the result cache and the reference
// LRU, pins both miss counts, and requires the cache to miss less.
func TestCacheBeatsLRUOnZipf(t *testing.T) {
	const capacity = 256
	c, ref := newResultCache(capacity), newRefLRU(capacity)
	var misses, lruMisses int
	for _, k := range zipfKeys(1, 2*capacity, 50000) {
		if !c.access(k) {
			misses++
		}
		if !ref.access(k) {
			lruMisses++
		}
	}
	c.check(t)
	const wantMisses, wantLRU = 2393, 2684
	if misses != wantMisses || lruMisses != wantLRU {
		t.Fatalf("misses: cache %d, LRU %d; pinned %d and %d", misses, lruMisses, wantMisses, wantLRU)
	}
	if misses >= lruMisses {
		t.Fatalf("the cache missed %d times, the LRU %d", misses, lruMisses)
	}
}

// TestCacheDeparturesCounted: the entries the cache lets go show as
// pathrank_cache_events_total's evicted and rejected events, one per new
// entry past the capacity, and a query asked for repeatedly outlasts more
// than a cache-full of one-offs.
func TestCacheDeparturesCounted(t *testing.T) {
	const capacity = 100
	_, ts := newTestServer(t, Config{CacheSize: capacity})
	rank := func(src, dst int) bool {
		t.Helper()
		var rr api.RankResult
		resp := postV2(t, ts.URL, fmt.Sprintf(`{"src":%d,"dst":%d}`, src, dst), &rr)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%d→%d: HTTP %d", src, dst, resp.StatusCode)
		}
		return rr.Cached
	}
	for range 3 {
		rank(0, 1)
	}
	// 0→1's next hit, once the first one-off has pushed it out of the
	// window, promotes it to protected. Once the cache is full, a one-off
	// leaving the window meets another at probation's tail and is rejected;
	// 1→0, asked for five times while it sits in the window, wins its place
	// and evicts one.
	for i := range 2 * capacity {
		switch i {
		case 1:
			rank(0, 1)
		case capacity + 10:
			for range 5 {
				rank(1, 0)
			}
		}
		src := 2 + i%79
		rank(src, (src+1+i/79)%81)
	}
	if !rank(0, 1) {
		t.Fatal("the repeated query 0→1 was pushed out by one-offs")
	}
	m := scrapeProm(t, ts.URL)
	event := func(e string) float64 { return m[`pathrank_cache_events_total{event="`+e+`"}`] }
	if event(cacheEvict) < 1 || event(cacheReject) < 1 {
		t.Fatalf("evicted %v, rejected %v; want both", event(cacheEvict), event(cacheReject))
	}
	if left, want := event(cacheEvict)+event(cacheReject), event(cacheMiss)-m["pathrank_cache_entries"]; left != want {
		t.Fatalf("%v entries left, want misses - entries = %v", left, want)
	}
	if m["pathrank_cache_entries"] != capacity {
		t.Fatalf("%v entries, want %d", m["pathrank_cache_entries"], capacity)
	}
}

// FuzzResultCache decodes bytes into get/add operations over 32 keys at
// capacities 1-16 and checks the slab, the bound and the values after
// every operation.
func FuzzResultCache(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0x80, 0x81, 0x00, 0x82, 0x01, 0x83, 0x80, 0x84})
	f.Add([]byte{15, 0x80, 0x80, 0x80, 0x81, 0x82, 0x83, 0x00, 0x9f, 0x9e, 0x01, 0x02})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		capacity := 1 + int(ops[0]%16)
		c := newResultCache(capacity)
		last := make(map[queryKey]byte)
		for i, op := range ops[1:] {
			key := intKey(int(op & 31))
			if op&0x80 != 0 {
				last[key] = byte(i)
				c.add(key, []byte{byte(i)})
			} else if v, ok := c.get(key); ok && (len(v) != 1 || v[0] != last[key]) {
				t.Fatalf("op %d: get returned %v, last added %d", i, v, last[key])
			}
			c.check(t)
			if c.len() > capacity {
				t.Fatalf("op %d: len %d over capacity %d", i, c.len(), capacity)
			}
		}
	})
}

// BenchmarkResultCache times the cache alone at the default capacity: a
// hit on one hot key, hits spread uniformly over a full cache, and a miss
// followed by the add that makes room (an eviction or a rejection). None
// allocates once the cache is full.
func BenchmarkResultCache(b *testing.B) {
	const capacity = 4096
	val := []byte("[]")
	full := func() (*resultCache, []queryKey) {
		c := newResultCache(capacity)
		keys := make([]queryKey, capacity)
		for i, p := range rand.New(rand.NewSource(1)).Perm(capacity) {
			keys[i] = intKey(p)
			c.add(keys[i], val)
		}
		return c, keys
	}
	b.Run("hot-hit", func(b *testing.B) {
		c, keys := full()
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			c.get(keys[0])
		}
	})
	b.Run("uniform-hit", func(b *testing.B) {
		c, keys := full()
		b.ReportAllocs()
		b.ResetTimer()
		i := 0
		for range b.N {
			c.get(keys[i&(capacity-1)])
			i++
		}
	})
	b.Run("miss", func(b *testing.B) {
		c, _ := full()
		b.ReportAllocs()
		b.ResetTimer()
		i := capacity
		for range b.N {
			k := intKey(i)
			if _, ok := c.get(k); !ok {
				c.add(k, val)
			}
			i++
		}
	})
}

package serve

import (
	"container/list"
	"math"
	"sync"

	"pathrank/internal/pathrank"
	"pathrank/internal/roadnet"
)

// queryKey identifies one rank query for caching and in-flight collapsing:
// the endpoints plus the resolved regime (pathrank.Resolve), so a query
// that spells out the snapshot's defaults and one that omits them share
// one cache entry and one in-flight computation by construction. The
// threshold is kept as its bit pattern so the key hashes as plain memory.
type queryKey struct {
	src, dst roadnet.VertexID
	k        int
	strategy uint8
	weight   uint8
	thrBits  uint64
	maxProbe int
}

// keyOf builds the cache key of a validated request and its regime.
func keyOf(req pathrank.RankRequest, rg pathrank.Regime) queryKey {
	return queryKey{
		src: req.Src, dst: req.Dst,
		k: rg.K, strategy: uint8(rg.Strategy), weight: uint8(rg.Weight),
		thrBits: math.Float64bits(rg.Threshold), maxProbe: rg.MaxProbe,
	}
}

// lruCache is a mutex-guarded LRU map from query to its ranking's rendered
// paths array, the bytes every response carrying that ranking splices in.
// Cached values are treated as immutable by all readers.
type lruCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[queryKey]*list.Element
}

type lruEntry struct {
	key queryKey
	val []byte
}

func newLRUCache(capacity int) *lruCache {
	if capacity <= 0 {
		return nil
	}
	return &lruCache{cap: capacity, ll: list.New(), items: make(map[queryKey]*list.Element, capacity)}
}

func (c *lruCache) get(key queryKey) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

func (c *lruCache) add(key queryKey, val []byte) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, val: val})
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
	}
}

func (c *lruCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

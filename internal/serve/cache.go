package serve

import (
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

// hash mixes the key's fields into 64 bits, splitmix64's finalizer last,
// with no seed, so the frequency sketch sees the same counters in every
// process.
func (k *queryKey) hash() uint64 {
	h := uint64(uint32(k.src))<<32 | uint64(uint32(k.dst))
	h ^= k.thrBits * 0x9e3779b97f4a7c15
	h ^= (uint64(k.maxProbe)<<32 | uint64(k.k)<<16 | uint64(k.strategy)<<8 | uint64(k.weight)) * 0xc2b2ae3d27d4eb4f
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return h ^ h>>31
}

// resultCache is a mutex-guarded map from query to its ranking's rendered
// paths array, the bytes every response carrying that ranking splices in.
// Cached values are treated as immutable by all readers. A nil cache is
// off.
//
// The policy is W-TinyLFU (Einziger, Friedman & Manes, ACM Transactions on
// Storage 2017) with Caffeine's shares: new entries enter a window LRU of
// 1 % of the capacity; the rest is a segmented LRU whose probation segment
// takes what leaves the window, and whose protected segment (80 %) takes
// probation's hits. Once the cache is full, the window's LRU entry joins
// probation only if the frequency sketch counts it as asked for more often
// than probation's LRU entry, which is then evicted; otherwise it goes.
// One-off queries thus displace each other, not repeated ones. On a replay
// of the benchmark's Zipf(1.3) stream (528,000 timed requests over 8,192
// pairs, 4,096 entries) an LRU misses 10,387 times, this cache 7,774, and
// Belady's offline optimum 4,526. The segments alone, admitting every
// newcomer, miss 9,143 times: the sketch earns its lines with the larger
// part of the gain.
//
// Entries live in one slab with int32 links. Slots 0-2 are the sentinels
// of the window, probation and protected lists. An entry that leaves hands
// its slot to the one being added, so once the cache is full nothing
// allocates.
type resultCache struct {
	mu      sync.Mutex
	slots   []cacheSlot
	index   map[queryKey]int32
	size    [segments]int // entries per segment
	winCap  int           // capacity of the window
	mainCap int           // capacity of probation + protected
	protCap int           // capacity of protected
	freq    sketch
}

// The segments, which are also their sentinels' slots.
const (
	window = iota
	probation
	protected
	segments
)

type cacheSlot struct {
	key        queryKey
	val        []byte
	prev, next int32
	seg        uint8
}

// addResult tells what an add pushed out of the cache.
type addResult uint8

const (
	addKept     addResult = iota // nothing left
	addEvicted                   // an entry was evicted to make room
	addRejected                  // the window's LRU entry lost admission to main and left
)

func newResultCache(capacity int) *resultCache {
	if capacity <= 0 {
		return nil
	}
	win := capacity - capacity*99/100
	c := &resultCache{
		slots:   make([]cacheSlot, segments, segments+capacity),
		index:   make(map[queryKey]int32, capacity),
		winCap:  win,
		mainCap: capacity - win,
		protCap: (capacity - win) * 80 / 100,
		freq:    newSketch(capacity),
	}
	for s := range int32(segments) {
		c.slots[s].prev, c.slots[s].next = s, s
	}
	return c
}

func (c *resultCache) get(key queryKey) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	h := key.hash()
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.index[key]
	if !ok {
		return nil, false
	}
	c.freq.increment(h)
	c.touch(i)
	return c.slots[i].val, true
}

func (c *resultCache) add(key queryKey, val []byte) addResult {
	if c == nil {
		return addKept
	}
	h := key.hash()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.freq.increment(h)
	if i, ok := c.index[key]; ok {
		c.slots[i].val = val
		c.touch(i)
		return addKept
	}
	// The newcomer goes to the window's front, so the window's LRU entry is
	// the one it pushes out, and it can be settled first.
	res, free := addKept, int32(-1)
	if c.size[window] == c.winCap {
		cand := c.slots[window].prev
		victim := c.slots[probation].prev
		switch {
		case c.size[probation]+c.size[protected] < c.mainCap:
			c.moveTo(cand, probation)
		case victim == probation: // no main segment to compete for
			res, free = addEvicted, cand
		case c.freq.estimate(c.slots[cand].key.hash()) > c.freq.estimate(c.slots[victim].key.hash()):
			c.moveTo(cand, probation)
			res, free = addEvicted, victim
		default:
			res, free = addRejected, cand
		}
	}
	if free < 0 {
		free = int32(len(c.slots))
		c.slots = append(c.slots, cacheSlot{})
	} else {
		c.unlink(free)
		delete(c.index, c.slots[free].key)
	}
	c.slots[free].key, c.slots[free].val = key, val
	c.pushFront(window, free)
	c.index[key] = free
	return res
}

func (c *resultCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.index)
}

// touch records a hit on slot i: a probation entry is promoted to
// protected, demoting protected's LRU entry if that overflows; any other
// entry moves to its segment's front.
func (c *resultCache) touch(i int32) {
	if seg := c.slots[i].seg; seg != probation {
		if c.slots[seg].next != i {
			c.moveTo(i, seg)
		}
		return
	}
	c.moveTo(i, protected)
	if c.size[protected] > c.protCap {
		c.moveTo(c.slots[protected].prev, probation)
	}
}

func (c *resultCache) moveTo(i int32, seg uint8) {
	c.unlink(i)
	c.pushFront(seg, i)
}

func (c *resultCache) unlink(i int32) {
	s := &c.slots[i]
	c.slots[s.prev].next = s.next
	c.slots[s.next].prev = s.prev
	c.size[s.seg]--
}

func (c *resultCache) pushFront(seg uint8, i int32) {
	head := int32(seg)
	first := c.slots[head].next
	c.slots[i].prev, c.slots[i].next, c.slots[i].seg = head, first, seg
	c.slots[first].prev = i
	c.slots[head].next = i
	c.size[seg]++
}

// sketch is a count-min sketch of how often keys were recorded: 4-bit
// counters, depth 4, and a width of the cache's capacity rounded up to a
// power of two. A key's four counters share one 64-bit word, one in each
// 16-bit quarter, so an update is one load and one store. Once the
// increments reach 10 × capacity every counter is halved, and the tally
// with them, so the sketch follows shifts in popularity.
type sketch struct {
	words  []uint64
	mask   uint64
	adds   int
	period int
}

func newSketch(capacity int) sketch {
	width := 4 // a word holds four counters of each row
	for width < capacity {
		width <<= 1
	}
	return sketch{words: make([]uint64, width/4), mask: uint64(width/4 - 1), period: 10 * capacity}
}

// counter returns the bit offset of row r's counter of hash h in its word.
// The word comes from h's low bits, the counter from two of its top eight.
func counter(h uint64, r uint) uint {
	return 16*r + 4*uint(h>>(56+2*r)&3)
}

func (s *sketch) increment(h uint64) {
	w := &s.words[h&s.mask]
	old := *w
	for r := range uint(4) {
		if off := counter(h, r); *w>>off&15 < 15 {
			*w += 1 << off
		}
	}
	if *w == old {
		return
	}
	if s.adds++; s.adds == s.period {
		for i := range s.words {
			s.words[i] = s.words[i] >> 1 & 0x7777777777777777
		}
		s.adds /= 2
	}
}

func (s *sketch) estimate(h uint64) uint64 {
	w := s.words[h&s.mask]
	est := uint64(15)
	for r := range uint(4) {
		est = min(est, w>>counter(h, r)&15)
	}
	return est
}

package spath

import (
	"math"
	"math/rand"
	"testing"

	"pathrank/internal/roadnet"
)

// floatHeap4 is the reference for the order heap4 pops in: the same
// indexed 4-ary layout and sift rules, on float compares, with the child
// chosen by a left-to-right scan.
type floatHeap4 struct {
	it   []floatItem
	pos  []int32
	pgen []uint32 // pos valid iff pgen[v] == gen
	gen  uint32
}

type floatItem struct {
	key float64
	v   roadnet.VertexID
}

func (h *floatHeap4) ensure(n int) {
	if len(h.pos) < n {
		h.pos = make([]int32, n)
		h.pgen = make([]uint32, n)
		h.gen = 0
	}
}

func (h *floatHeap4) reset() {
	h.it = h.it[:0]
	h.gen++
	if h.gen == 0 {
		clearU32(h.pgen)
		h.gen = 1
	}
}

func (h *floatHeap4) empty() bool { return len(h.it) == 0 }

func (h *floatHeap4) push(v roadnet.VertexID, key float64) {
	h.it = append(h.it, floatItem{key: key, v: v})
	h.pgen[v] = h.gen
	h.up(len(h.it) - 1)
}

func (h *floatHeap4) update(v roadnet.VertexID, key float64) {
	if h.pgen[v] == h.gen {
		i := int(h.pos[v])
		if key >= h.it[i].key {
			return
		}
		h.it[i].key = key
		h.up(i)
		return
	}
	h.push(v, key)
}

func (h *floatHeap4) pop() (roadnet.VertexID, float64) {
	top := h.it[0]
	last := len(h.it) - 1
	h.it[0] = h.it[last]
	h.it = h.it[:last]
	if last > 0 {
		h.pos[h.it[0].v] = 0
		h.down(0)
	}
	h.pgen[top.v] = h.gen - 1
	return top.v, top.key
}

func (h *floatHeap4) up(i int) {
	it := h.it[i]
	for i > 0 {
		p := (i - 1) >> 2
		if h.it[p].key <= it.key {
			break
		}
		h.it[i] = h.it[p]
		h.pos[h.it[i].v] = int32(i)
		i = p
	}
	h.it[i] = it
	h.pos[it.v] = int32(i)
}

func (h *floatHeap4) down(i int) {
	n := len(h.it)
	it := h.it[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		best := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if h.it[j].key < h.it[best].key {
				best = j
			}
		}
		if h.it[best].key >= it.key {
			break
		}
		h.it[i] = h.it[best]
		h.pos[h.it[i].v] = int32(i)
		i = best
	}
	h.it[i] = it
	h.pos[it.v] = int32(i)
}

// TestHeapPopsInReferenceOrder drives heap4 and the float-compare reference
// through the same random push, update and pop sequences and requires the
// same pops, vertex and key bits. Keys come from a small palette — ±0,
// negatives, ±Inf, subnormals and many equal values — and updates often
// decrease a key onto one already present, so the tie rules of every sift
// are exercised. Both heaps are reused across rounds, as a workspace does.
func TestHeapPopsInReferenceOrder(t *testing.T) {
	palette := []float64{
		math.Inf(-1), -math.MaxFloat64, -7, -2.5, -1, -math.SmallestNonzeroFloat64, math.Copysign(0, -1),
		0, math.SmallestNonzeroFloat64, 0.5, 1, 1, 2, 2, 2, 3, 7, math.MaxFloat64, math.Inf(1),
	}
	const n = 96
	var h heap4
	var ref floatHeap4
	h.ensure(n)
	ref.ensure(n)
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 400; round++ {
		h.reset()
		ref.reset()
		present := map[roadnet.VertexID]float64{}
		key := func() float64 {
			if rng.Intn(4) == 0 {
				return float64(rng.Intn(9) - 4) // more ties
			}
			return palette[rng.Intn(len(palette))]
		}
		for op := 0; op < 600; op++ {
			switch r := rng.Intn(10); {
			case r < 5: // push or update a random vertex
				v, k := roadnet.VertexID(rng.Intn(n)), key()
				h.update(v, k)
				ref.update(v, k)
				if old, ok := present[v]; !ok || k < old {
					present[v] = k
				}
			case r < 7 && len(present) > 1: // decrease a key onto another present key
				var vs []roadnet.VertexID // in vertex order: map order would be random
				for v := roadnet.VertexID(0); v < n; v++ {
					if _, ok := present[v]; ok {
						vs = append(vs, v)
					}
				}
				v := vs[rng.Intn(len(vs))]
				k := present[vs[rng.Intn(len(vs))]]
				h.update(v, k)
				ref.update(v, k)
				if k < present[v] {
					present[v] = k
				}
			default:
				if ref.empty() != h.empty() {
					t.Fatalf("round %d op %d: empty %v, reference %v", round, op, h.empty(), ref.empty())
				}
				if ref.empty() {
					continue
				}
				gv, gk := h.pop()
				wv, wk := ref.pop()
				if gv != wv || math.Float64bits(gk) != math.Float64bits(wk) {
					t.Fatalf("round %d op %d: popped (%d, %x), reference (%d, %x)", round, op, gv, math.Float64bits(gk), wv, math.Float64bits(wk))
				}
				delete(present, gv)
			}
		}
		for !ref.empty() {
			gv, gk := h.pop()
			wv, wk := ref.pop()
			if gv != wv || math.Float64bits(gk) != math.Float64bits(wk) {
				t.Fatalf("round %d drain: popped (%d, %x), reference (%d, %x)", round, gv, math.Float64bits(gk), wv, math.Float64bits(wk))
			}
		}
		if !h.empty() {
			t.Fatalf("round %d: heap4 holds %d items after the reference drained", round, len(h.it))
		}
	}
}

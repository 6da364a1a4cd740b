package pathrank

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"reflect"
	"slices"
	"unsafe"

	"pathrank/internal/roadnet"
	"pathrank/internal/spath"
)

// The raw section of an artifact (see the format comment in artifact.go)
// is the byte image of the graph's CSR arrays (roadnet.GraphData) and,
// when the artifact carries a CH, the CH query arrays (spath.CHData),
// each 8-byte aligned. A directory names every array by offset and
// element count:
//
//	8   magic "PRRAWSEC"
//	4   byte-order probe (0x01020304, native endianness)
//	4   array count (8 = graph only, 20 = graph + CH)
//	16n per array: file offset (uint64), element count (uint64)
//
// Array order and element types are fixed by graphSlots and chSlots —
// the one table both the writer and the loader walk — so the directory
// needs no type tags. The image is native-endian and uses the writing
// build's struct layout: the probe rejects a cross-endian file, and
// TestRawLayoutPinned fails when a struct edit would change the format.
var rawSectionMagic = [8]byte{'P', 'R', 'R', 'A', 'W', 'S', 'E', 'C'}

const (
	rawEndianProbe     uint32 = 0x01020304
	rawDirHeaderLen           = 16 // magic + probe + count
	rawGraphArrayCount        = 8
	rawCHArrayCount           = 12
)

func align8(n int) int { return (n + 7) &^ 7 }

// alignedBytes returns a zeroed buffer of length n whose base address is
// 8-byte aligned (backed by a []uint64), so raw arrays reinterpreted out
// of it satisfy their alignment no matter where the allocator would have
// placed a plain []byte.
func alignedBytes(n int) []byte {
	if n == 0 {
		return nil
	}
	w := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(&w[0])), n)
}

// rawDirEntry is one directory entry.
type rawDirEntry struct {
	off, elems uint64
}

// rawSlot ties one directory position to one []T field: image yields the
// field's bytes for the writer, bind points the field into a loaded file.
type rawSlot struct {
	image func() (b []byte, elems uint64)
	bind  func(data []byte, e rawDirEntry) error
}

// A struct's padding bytes hold whatever the memory held when a value
// was copied in, so the image of a []T with padding is a copy with those
// bytes zeroed: a file's bytes, and GraphDigest, are then fixed by the
// values alone.
func slot[T any](p *[]T) rawSlot {
	return rawSlot{
		image: func() ([]byte, uint64) {
			s := *p
			if len(s) == 0 {
				return nil, 0
			}
			b := unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0])))
			mask := make([]byte, unsafe.Sizeof(s[0]))
			markFields(mask, reflect.TypeFor[T](), 0)
			if bytes.IndexByte(mask, 0) >= 0 {
				b = bytes.Clone(b)
				for e := b; len(e) > 0; e = e[len(mask):] {
					for i, m := range mask {
						e[i] &= m
					}
				}
			}
			return b, uint64(len(s))
		},
		bind: func(data []byte, e rawDirEntry) (err error) {
			*p, err = sliceOf[T](data, e)
			return err
		},
	}
}

// markFields sets to 0xff the bytes of mask that a value of type t at
// offset off holds in a field, leaving its padding zero. (No array type
// of padded elements is laid out in the raw section.)
func markFields(mask []byte, t reflect.Type, off uintptr) {
	if t.Kind() != reflect.Struct {
		for i := range t.Size() {
			mask[off+i] = 0xff
		}
		return
	}
	for i := range t.NumField() {
		markFields(mask, t.Field(i).Type, off+t.Field(i).Offset)
	}
}

// graphSlots is the directory order of the graph arrays.
func graphSlots(d *roadnet.GraphData) []rawSlot {
	return []rawSlot{
		slot(&d.Vertices), slot(&d.Edges),
		slot(&d.OutStart), slot(&d.OutEdges), slot(&d.OutTo),
		slot(&d.InStart), slot(&d.InEdges), slot(&d.InFrom),
	}
}

// chSlots is the directory order of the CH arrays, after the graph's.
// Kept because benchmark/'s artifact carries a hierarchy.
func chSlots(d *spath.CHData) []rawSlot {
	return []rawSlot{
		slot(&d.Order),
		slot(&d.ArcFrom), slot(&d.ArcTo), slot(&d.ArcWeight), slot(&d.ArcMid), slot(&d.ArcEdge),
		slot(&d.UpStart), slot(&d.UpArcs), slot(&d.DownStart), slot(&d.DownArcs),
		slot(&d.IdxKeys), slot(&d.IdxVals),
	}
}

// GraphDigest returns the SHA-256 of g's flat arrays, laid out as an
// artifact's raw section at offset 0. Two graphs digest equal iff their
// arrays are byte-identical.
func GraphDigest(g *roadnet.Graph) [sha256.Size]byte {
	gd := g.RawData()
	h := sha256.New()
	_ = writeRawSection(h, 0, graphSlots(&gd)) // a hash.Hash never fails a Write
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// writeRawSection writes everything that follows the payload, which
// ended at file offset pos: padding to the 8-byte boundary, the directory,
// and each array at its own 8-byte boundary. It is deterministic in its
// arguments, so the saver can run it once into a hash and once into the
// file.
func writeRawSection(w io.Writer, pos int, slots []rawSlot) error {
	images := make([][]byte, len(slots))
	dir := make([]byte, rawDirHeaderLen+len(slots)*16)
	copy(dir, rawSectionMagic[:])
	binary.NativeEndian.PutUint32(dir[8:], rawEndianProbe)
	binary.NativeEndian.PutUint32(dir[12:], uint32(len(slots)))
	rawStart := align8(pos)
	off := align8(rawStart + len(dir))
	for i, s := range slots {
		var elems uint64
		images[i], elems = s.image()
		binary.NativeEndian.PutUint64(dir[rawDirHeaderLen+i*16:], uint64(off))
		binary.NativeEndian.PutUint64(dir[rawDirHeaderLen+i*16+8:], elems)
		off = align8(off + len(images[i]))
	}
	var pad [8]byte
	emit := func(b []byte) error {
		if _, err := w.Write(pad[:align8(pos)-pos]); err != nil {
			return err
		}
		_, err := w.Write(b)
		pos = align8(pos) + len(b)
		return err
	}
	if err := emit(dir); err != nil {
		return err
	}
	for _, img := range images {
		if err := emit(img); err != nil {
			return err
		}
	}
	return nil
}

// readRawSection parses the directory at rawStart and points a GraphData
// (and a CHData, when the file carries one) into data. Everything needed
// to make the reinterpretation memory-safe is checked here on both load
// paths — directory bounds, offset alignment, element-size products,
// end-of-file bounds, mutually consistent array lengths — so a truncated
// or corrupt file fails with a typed error instead of faulting. Whether
// the array CONTENTS are sane is validateRawGraph/validateRawCH's job.
func readRawSection(data []byte, rawStart int) (gd roadnet.GraphData, chd *spath.CHData, err error) {
	if rawStart+rawDirHeaderLen > len(data) {
		return gd, nil, fmt.Errorf("%w: raw section truncated", ErrArtifactCorrupt)
	}
	d := data[rawStart:]
	if !bytes.Equal(d[:8], rawSectionMagic[:]) {
		return gd, nil, fmt.Errorf("%w: bad raw-section magic", ErrArtifactCorrupt)
	}
	if probe := binary.NativeEndian.Uint32(d[8:12]); probe != rawEndianProbe {
		return gd, nil, fmt.Errorf("%w: artifact written on a different byte order", ErrArtifactFormat)
	}
	count := int(binary.NativeEndian.Uint32(d[12:16]))
	slots := graphSlots(&gd)
	switch count {
	case rawGraphArrayCount:
	case rawGraphArrayCount + rawCHArrayCount:
		chd = &spath.CHData{}
		slots = append(slots, chSlots(chd)...)
	default:
		return gd, nil, fmt.Errorf("%w: raw section has %d arrays", ErrArtifactCorrupt, count)
	}
	if rawDirHeaderLen+count*16 > len(d) {
		return gd, nil, fmt.Errorf("%w: raw directory truncated", ErrArtifactCorrupt)
	}
	for i, s := range slots {
		e := d[rawDirHeaderLen+i*16:]
		if err := s.bind(data, rawDirEntry{
			off:   binary.NativeEndian.Uint64(e[0:8]),
			elems: binary.NativeEndian.Uint64(e[8:16]),
		}); err != nil {
			return gd, nil, err
		}
	}
	nv, ne := len(gd.Vertices), len(gd.Edges)
	if nv == 0 || len(gd.OutStart) != nv+1 || len(gd.InStart) != nv+1 ||
		len(gd.OutEdges) != ne || len(gd.OutTo) != ne || len(gd.InEdges) != ne || len(gd.InFrom) != ne {
		return gd, nil, fmt.Errorf("%w: raw graph arrays inconsistent (%d vertices, %d edges)", ErrArtifactCorrupt, nv, ne)
	}
	if chd != nil {
		m := len(chd.ArcFrom)
		if len(chd.Order) != nv || len(chd.ArcTo) != m || len(chd.ArcWeight) != m ||
			len(chd.ArcMid) != m || len(chd.ArcEdge) != m ||
			len(chd.UpStart) != nv+1 || len(chd.DownStart) != nv+1 ||
			len(chd.UpArcs)+len(chd.DownArcs) != m ||
			len(chd.IdxKeys) != len(chd.IdxVals) {
			return gd, nil, fmt.Errorf("%w: raw CH arrays inconsistent", ErrArtifactCorrupt)
		}
	}
	return gd, chd, nil
}

// sliceOf reinterprets a directory entry as a []T, after verifying the
// entry lies inside data, is 8-byte aligned, and its byte length matches
// elems*sizeof(T) without overflow.
func sliceOf[T any](data []byte, e rawDirEntry) ([]T, error) {
	if e.elems == 0 {
		return nil, nil
	}
	size := uint64(unsafe.Sizeof(*new(T)))
	if e.off%8 != 0 {
		return nil, fmt.Errorf("%w: misaligned raw array at %d", ErrArtifactCorrupt, e.off)
	}
	if e.off > uint64(len(data)) || e.elems > (uint64(len(data))-e.off)/size {
		return nil, fmt.Errorf("%w: raw array out of bounds (off %d, %d elems)", ErrArtifactCorrupt, e.off, e.elems)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&data[e.off])), e.elems), nil
}

// validateRawGraph checks that the CSR start arrays are monotone and
// in-bounds, so Graph accessors cannot panic on slicing; Graph.Validate
// (run by the caller afterwards) covers the per-edge invariants.
func validateRawGraph(gd roadnet.GraphData) error {
	ne := int32(len(gd.Edges))
	for _, starts := range [][]int32{gd.OutStart, gd.InStart} {
		if starts[0] != 0 || starts[len(starts)-1] != ne {
			return fmt.Errorf("%w: CSR start array does not span the edge set", ErrArtifactCorrupt)
		}
		for i := 1; i < len(starts); i++ {
			if starts[i] < starts[i-1] {
				return fmt.Errorf("%w: CSR start array not monotone at %d", ErrArtifactCorrupt, i)
			}
		}
	}
	for _, eid := range gd.OutEdges {
		if eid < 0 || int32(eid) >= ne {
			return fmt.Errorf("%w: out-adjacency edge %d out of range", ErrArtifactCorrupt, eid)
		}
	}
	for _, eid := range gd.InEdges {
		if eid < 0 || int32(eid) >= ne {
			return fmt.Errorf("%w: in-adjacency edge %d out of range", ErrArtifactCorrupt, eid)
		}
	}
	nv := int32(len(gd.Vertices))
	for _, v := range gd.OutTo {
		if v < 0 || int32(v) >= nv {
			return fmt.Errorf("%w: out-neighbor %d out of range", ErrArtifactCorrupt, v)
		}
	}
	for _, v := range gd.InFrom {
		if v < 0 || int32(v) >= nv {
			return fmt.Errorf("%w: in-neighbor %d out of range", ErrArtifactCorrupt, v)
		}
	}
	return nil
}

// validateRawCH is the one CH validator: index ranges, monotone
// adjacency, and shortcut unpackability. Every shortcut must (a) have
// both half-arcs present in the unpacking index — a missing key would
// silently unpack through a neighbouring entry — and (b) satisfy the CH
// rank invariant order[mid] < min(order[from], order[to]). The invariant
// is what makes unpacking terminate (each recursion strictly decreases
// the endpoints' rank sum), so a crafted file that wires shortcuts into a
// cycle is rejected here instead of overflowing the stack at query time.
// Kept because benchmark/'s artifact carries a hierarchy.
func validateRawCH(gd roadnet.GraphData, d spath.CHData) error {
	nv := int32(len(gd.Vertices))
	ne := int32(len(gd.Edges))
	m := int32(len(d.ArcFrom))
	if m < ne {
		return fmt.Errorf("%w: CH carries %d arcs for a %d-edge graph", ErrArtifactCorrupt, m, ne)
	}
	for _, starts := range [][]int32{d.UpStart, d.DownStart} {
		if starts[0] != 0 {
			return fmt.Errorf("%w: CH adjacency does not start at 0", ErrArtifactCorrupt)
		}
		for i := 1; i < len(starts); i++ {
			if starts[i] < starts[i-1] {
				return fmt.Errorf("%w: CH adjacency not monotone at %d", ErrArtifactCorrupt, i)
			}
		}
	}
	if int(d.UpStart[nv]) != len(d.UpArcs) || int(d.DownStart[nv]) != len(d.DownArcs) {
		return fmt.Errorf("%w: CH adjacency does not span its arc lists", ErrArtifactCorrupt)
	}
	for _, list := range [][]int32{d.UpArcs, d.DownArcs} {
		for _, ai := range list {
			if ai < 0 || ai >= m {
				return fmt.Errorf("%w: CH adjacency names arc %d of %d", ErrArtifactCorrupt, ai, m)
			}
		}
	}
	for i := range d.IdxKeys {
		if i > 0 && d.IdxKeys[i] <= d.IdxKeys[i-1] {
			return fmt.Errorf("%w: CH unpacking index not strictly sorted at %d", ErrArtifactCorrupt, i)
		}
		if d.IdxVals[i] < 0 || d.IdxVals[i] >= m {
			return fmt.Errorf("%w: CH unpacking index value %d out of range", ErrArtifactCorrupt, d.IdxVals[i])
		}
	}
	indexed := func(from, to int32) bool {
		_, ok := slices.BinarySearch(d.IdxKeys, int64(from)<<32|int64(uint32(to)))
		return ok
	}
	for i := int32(0); i < m; i++ {
		from, to, mid := d.ArcFrom[i], d.ArcTo[i], d.ArcMid[i]
		if from < 0 || from >= nv || to < 0 || to >= nv {
			return fmt.Errorf("%w: CH arc %d endpoints out of range", ErrArtifactCorrupt, i)
		}
		if mid < -1 || mid >= nv {
			return fmt.Errorf("%w: CH arc %d middle vertex out of range", ErrArtifactCorrupt, i)
		}
		if !(d.ArcWeight[i] >= 0) { // also rejects NaN
			return fmt.Errorf("%w: CH arc %d has invalid weight", ErrArtifactCorrupt, i)
		}
		if mid < 0 {
			if d.ArcEdge[i] < 0 || int32(d.ArcEdge[i]) >= ne {
				return fmt.Errorf("%w: CH arc %d edge out of range", ErrArtifactCorrupt, i)
			}
			continue
		}
		if d.Order[mid] >= d.Order[from] || d.Order[mid] >= d.Order[to] {
			return fmt.Errorf("%w: CH shortcut %d violates the rank invariant", ErrArtifactCorrupt, i)
		}
		if !indexed(from, mid) || !indexed(mid, to) {
			return fmt.Errorf("%w: CH shortcut %d has no half-arc in the unpacking index", ErrArtifactCorrupt, i)
		}
	}
	// Every arc must be filed where a search expects it: rank-increasing
	// arcs under their tail in the upward lists, the rest under their head
	// in the downward lists. Path reconstruction walks parent arcs back by
	// ArcFrom/ArcTo, so an arc filed under another vertex sends the walk
	// somewhere the search never was, and it need not terminate.
	for v := int32(0); v < nv; v++ {
		for _, ai := range d.UpArcs[d.UpStart[v]:d.UpStart[v+1]] {
			if d.ArcFrom[ai] != v || d.Order[d.ArcTo[ai]] <= d.Order[v] {
				return fmt.Errorf("%w: CH arc %d misfiled in the upward list of vertex %d", ErrArtifactCorrupt, ai, v)
			}
		}
		for _, ai := range d.DownArcs[d.DownStart[v]:d.DownStart[v+1]] {
			if d.ArcTo[ai] != v || d.Order[d.ArcFrom[ai]] < d.Order[v] {
				return fmt.Errorf("%w: CH arc %d misfiled in the downward list of vertex %d", ErrArtifactCorrupt, ai, v)
			}
		}
	}
	return nil
}

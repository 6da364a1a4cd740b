package pathrank

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"pathrank/internal/geo"
	"pathrank/internal/roadnet"
	"pathrank/internal/spath"
)

// This file is the shard wire: the body of the sub-query a fan-out router
// sends a shard worker (POST /shard/corridor) and of the worker's answer.
// Each body is one frame — frame.go's header under the body's own magic,
// version shardWireVersion — around a little-endian payload of fixed-width
// fields:
//
//	corridor query   bound f64 · weight u8 · n u32 · n × seed · m u32 · m × seed
//	                 (forward seeds, then reverse seeds; seed = v u32 · distance f64)
//	corridor answer  fingerprint [32]byte · n u32 · n × vertex · m u32 · m × edge
//	                 vertex = id u32 · lon f64 · lat f64
//	                 edge   = id u32 · from u32 · to u32 · length f64 · time f64 · category u8
//
// IDs are global vertex and edge IDs. Floats are raw IEEE-754 bits, so
// +Inf (unreachable), -0 and subnormals cross unchanged and every cost the
// router fuses is bit-for-bit the shard's. A decoder checks the header, then
// each count against the bytes left before it slices or allocates anything,
// and rejects bytes after the last field or after the frame. It checks shape
// only: whether a vertex is in range, a distance admissible or a corridor
// owned by its sender is for the receiver to judge, since only the receiver
// holds the graph or the shard map.
const shardWireVersion = 1

// ShardWireContentType is the Content-Type of every shard-wire body.
const ShardWireContentType = "application/octet-stream"

var (
	corridorQueryMagic  = [8]byte{'P', 'R', 'S', 'H', 'C', 'Q', 'R', 'Y'}
	corridorAnswerMagic = [8]byte{'P', 'R', 'S', 'H', 'C', 'A', 'N', 'S'}
)

// Fixed record widths, in bytes.
const (
	seedLen   = 4 + 8
	vertexLen = 4 + 8 + 8
	edgeLen   = 4 + 4 + 4 + 8 + 8 + 1
)

// CorridorQuery asks a shard for its vertices that can lie on a
// source→destination path of cost at most Bound, given exact entry costs
// (Seeds, from the source side) and exit costs (RSeeds, to the destination
// side) at its boundary, plus the induced edges between them.
type CorridorQuery struct {
	Bound         float64
	Weight        WeightKind
	Seeds, RSeeds []spath.Seed
}

// CorridorAnswer is a decoded corridor: the serving fingerprint, the
// corridor vertices and the induced edges with their full records, under
// global IDs. The records stay in the frame's bytes and are read in place,
// so a receiver copies each one straight into its own tables.
type CorridorAnswer struct {
	Fingerprint   [sha256.Size]byte
	vertex, edges []byte
}

// NumVertices is the number of corridor vertices.
func (a *CorridorAnswer) NumVertices() int { return len(a.vertex) / vertexLen }

// Vertex returns corridor vertex i; its ID is the global vertex ID.
func (a *CorridorAnswer) Vertex(i int) roadnet.Vertex {
	r := a.vertex[i*vertexLen : (i+1)*vertexLen]
	return roadnet.Vertex{
		ID:    roadnet.VertexID(binary.LittleEndian.Uint32(r)),
		Point: geo.Point{Lon: f64At(r[4:]), Lat: f64At(r[12:])},
	}
}

// NumEdges is the number of corridor edges.
func (a *CorridorAnswer) NumEdges() int { return len(a.edges) / edgeLen }

// Edge returns corridor edge i under global edge and vertex IDs.
func (a *CorridorAnswer) Edge(i int) roadnet.Edge {
	r := a.edges[i*edgeLen : (i+1)*edgeLen]
	return roadnet.Edge{
		ID:       roadnet.EdgeID(binary.LittleEndian.Uint32(r)),
		From:     roadnet.VertexID(binary.LittleEndian.Uint32(r[4:])),
		To:       roadnet.VertexID(binary.LittleEndian.Uint32(r[8:])),
		Length:   f64At(r[12:]),
		Time:     f64At(r[20:]),
		Category: roadnet.Category(r[28]),
	}
}

// EncodeCorridorQuery frames q.
func EncodeCorridorQuery(q CorridorQuery) []byte {
	w := newWireWriter(8 + 1 + 4 + 4 + seedLen*(len(q.Seeds)+len(q.RSeeds)))
	w.f64(q.Bound)
	w.u8(uint8(q.Weight))
	for _, seeds := range [2][]spath.Seed{q.Seeds, q.RSeeds} {
		w.u32(uint32(len(seeds)))
		for _, s := range seeds {
			w.u32(uint32(s.V))
			w.f64(s.Dist)
		}
	}
	return w.seal(corridorQueryMagic)
}

// DecodeCorridorQuery parses a frame written by EncodeCorridorQuery.
func DecodeCorridorQuery(data []byte) (CorridorQuery, error) {
	r, err := openWire(data, corridorQueryMagic, "corridor query")
	if err != nil {
		return CorridorQuery{}, err
	}
	q := CorridorQuery{Bound: r.f64(), Weight: r.weight()}
	q.Seeds = r.seeds()
	q.RSeeds = r.seeds()
	return q, r.done()
}

// EncodeCorridorAnswer frames a corridor under global IDs: the sender's
// fingerprint, its corridor vertices and the edges induced on them.
func EncodeCorridorAnswer(fp [sha256.Size]byte, vertices []roadnet.Vertex, edges []roadnet.Edge) []byte {
	w := newWireWriter(sha256.Size + 4 + vertexLen*len(vertices) + 4 + edgeLen*len(edges))
	w.bytes(fp[:])
	w.u32(uint32(len(vertices)))
	for _, v := range vertices {
		w.u32(uint32(v.ID))
		w.f64(v.Point.Lon)
		w.f64(v.Point.Lat)
	}
	w.u32(uint32(len(edges)))
	for _, e := range edges {
		w.u32(uint32(e.ID))
		w.u32(uint32(e.From))
		w.u32(uint32(e.To))
		w.f64(e.Length)
		w.f64(e.Time)
		w.u8(uint8(e.Category))
	}
	return w.seal(corridorAnswerMagic)
}

// DecodeCorridorAnswer parses a frame written by EncodeCorridorAnswer. The
// answer aliases data.
func DecodeCorridorAnswer(data []byte) (*CorridorAnswer, error) {
	r, err := openWire(data, corridorAnswerMagic, "corridor answer")
	if err != nil {
		return nil, err
	}
	a := &CorridorAnswer{}
	copy(a.Fingerprint[:], r.take(sha256.Size))
	a.vertex = r.take(r.count(vertexLen) * vertexLen)
	a.edges = r.take(r.count(edgeLen) * edgeLen)
	if err := r.done(); err != nil {
		return nil, err
	}
	return a, nil
}

// wireWriter builds one frame in place: the header's bytes are reserved up
// front and written last, over the finished payload.
type wireWriter struct{ b []byte }

func newWireWriter(payloadLen int) *wireWriter {
	return &wireWriter{b: make([]byte, FrameHeaderLen, FrameHeaderLen+payloadLen)}
}

func (w *wireWriter) u8(v uint8)     { w.b = append(w.b, v) }
func (w *wireWriter) u32(v uint32)   { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *wireWriter) f64(v float64)  { w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(v)) }
func (w *wireWriter) bytes(p []byte) { w.b = append(w.b, p...) }

func (w *wireWriter) seal(magic [8]byte) []byte {
	h := EncodeFrame(magic, shardWireVersion, w.b[FrameHeaderLen:])
	copy(w.b, h[:])
	return w.b
}

// wireReader consumes a payload field by field. The first short read or
// bad value sticks in err, and every later read returns zero values, so a
// decoder reads straight through and checks once, in done.
type wireReader struct {
	p    []byte
	what string
	err  error
}

// openWire checks data's frame header and that nothing follows the frame;
// what names the body in every error the reader returns.
func openWire(data []byte, magic [8]byte, what string) (*wireReader, error) {
	payload, err := DecodeFrame(data, magic, shardWireVersion)
	if err == nil && len(data) != FrameHeaderLen+len(payload) {
		err = fmt.Errorf("%d bytes after the frame", len(data)-FrameHeaderLen-len(payload))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", what, err)
	}
	return &wireReader{p: payload, what: what}, nil
}

func (r *wireReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// take returns the next n bytes, or nil once the payload is short.
func (r *wireReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.p) {
		r.fail(fmt.Errorf("payload ends inside a %d-byte field (%d bytes left)", n, len(r.p)))
		return nil
	}
	out := r.p[:n:n]
	r.p = r.p[n:]
	return out
}

func (r *wireReader) u8() uint8 {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *wireReader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *wireReader) f64() float64 {
	if b := r.take(8); b != nil {
		return f64At(b)
	}
	return 0
}

// count reads an array length and checks that many records of recLen
// bytes are present before anyone sizes anything by it.
func (r *wireReader) count(recLen int) int {
	n := int(r.u32())
	if r.err == nil && n > len(r.p)/recLen {
		r.fail(fmt.Errorf("%d records of %d bytes, only %d bytes left", n, recLen, len(r.p)))
	}
	if r.err != nil {
		return 0
	}
	return n
}

func (r *wireReader) weight() WeightKind {
	w := WeightKind(r.u8())
	if w > WeightTime {
		r.fail(fmt.Errorf("weight %d (want 0 auto, 1 length or 2 time)", w))
	}
	return w
}

func (r *wireReader) seeds() []spath.Seed {
	raw := r.take(r.count(seedLen) * seedLen)
	if len(raw) == 0 {
		return nil
	}
	seeds := make([]spath.Seed, len(raw)/seedLen)
	for i := range seeds {
		rec := raw[i*seedLen:]
		seeds[i] = spath.Seed{V: roadnet.VertexID(binary.LittleEndian.Uint32(rec)), Dist: f64At(rec[4:])}
	}
	return seeds
}

// done reports the first failure, or bytes left after the last field.
func (r *wireReader) done() error {
	if r.err == nil && len(r.p) != 0 {
		r.err = fmt.Errorf("%d bytes after the last field", len(r.p))
	}
	if r.err != nil {
		return fmt.Errorf("%s: %w", r.what, r.err)
	}
	return nil
}

func f64At(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

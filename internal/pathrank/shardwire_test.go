package pathrank

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"pathrank/internal/geo"
	"pathrank/internal/roadnet"
	"pathrank/internal/spath"
)

// shardCodec is one shard-wire body: its magic, its decoder, and the
// encoder a decoded value goes back through.
type shardCodec struct {
	name   string
	magic  [8]byte
	decode func([]byte) (any, error)
	encode func(any) []byte
}

var shardCodecs = []shardCodec{
	{"boundary query", boundaryQueryMagic,
		func(b []byte) (any, error) { return DecodeBoundaryQuery(b) },
		func(v any) []byte { return EncodeBoundaryQuery(v.(BoundaryQuery)) }},
	{"boundary answer", boundaryAnswerMagic,
		func(b []byte) (any, error) { return DecodeBoundaryAnswer(b) },
		func(v any) []byte { return EncodeBoundaryAnswer(v.(BoundaryAnswer)) }},
	{"corridor query", corridorQueryMagic,
		func(b []byte) (any, error) { return DecodeCorridorQuery(b) },
		func(v any) []byte { return EncodeCorridorQuery(v.(CorridorQuery)) }},
	{"corridor answer", corridorAnswerMagic,
		func(b []byte) (any, error) { return DecodeCorridorAnswer(b) },
		func(v any) []byte {
			a := v.(*CorridorAnswer)
			vs := make([]roadnet.Vertex, a.NumVertices())
			for i := range vs {
				vs[i] = a.Vertex(i)
			}
			es := make([]roadnet.Edge, a.NumEdges())
			for i := range es {
				es[i] = a.Edge(i)
			}
			return EncodeCorridorAnswer(a.Fingerprint, vs, es)
		}},
}

// shardFrameSeeds returns one valid frame of each kind, carrying +Inf, -0
// and subnormal costs, and IDs whose top bit is set.
func shardFrameSeeds() [][]byte {
	sub := math.SmallestNonzeroFloat64
	negZero := math.Copysign(0, -1)
	fp := [32]byte{0: 0xfe, 31: 0x01}
	return [][]byte{
		EncodeBoundaryQuery(BoundaryQuery{V: 7, Rev: true, Weight: WeightTime}),
		EncodeBoundaryQuery(BoundaryQuery{V: -1}),
		EncodeBoundaryAnswer(BoundaryAnswer{Fingerprint: fp, Dist: []float64{0, negZero, sub, math.Inf(1), 12.5}}),
		EncodeBoundaryAnswer(BoundaryAnswer{}),
		EncodeCorridorQuery(CorridorQuery{
			Bound: 100, Weight: WeightLength,
			Seeds:  []spath.Seed{{V: 1}, {V: 2, Dist: math.Inf(1)}},
			RSeeds: []spath.Seed{{V: 3, Dist: sub}, {V: -5, Dist: negZero}},
		}),
		EncodeCorridorAnswer(fp,
			[]roadnet.Vertex{{ID: 1, Point: geo.Point{Lon: 10, Lat: 57}}, {ID: 4, Point: geo.Point{Lon: negZero, Lat: sub}}},
			[]roadnet.Edge{{ID: 2, From: 1, To: 4, Length: sub, Time: negZero, Category: roadnet.Residential}, {ID: -1, Length: math.Inf(1)}}),
		EncodeCorridorAnswer(fp, nil, nil),
	}
}

func TestShardFramesRoundTrip(t *testing.T) {
	for _, frame := range shardFrameSeeds() {
		decoded := 0
		for _, c := range shardCodecs {
			v, err := c.decode(frame)
			if err != nil {
				continue
			}
			decoded++
			if got := c.encode(v); !bytes.Equal(got, frame) {
				t.Fatalf("%s: re-encoding changed the frame\n got %x\nwant %x", c.name, got, frame)
			}
		}
		if decoded != 1 {
			t.Fatalf("frame %x decodes as %d kinds, want exactly its own", frame[:8], decoded)
		}
	}
	// The decoded answer carries the raw bits, not just equal values.
	a, err := DecodeBoundaryAnswer(shardFrameSeeds()[2])
	if err != nil {
		t.Fatal(err)
	}
	if !math.Signbit(a.Dist[1]) || a.Dist[2] != math.SmallestNonzeroFloat64 || !math.IsInf(a.Dist[3], 1) {
		t.Fatalf("boundary distances lost bits: %v", a.Dist)
	}
}

// FuzzShardFrames: on arbitrary bytes every shard-wire decoder returns a
// value or an error, never panics, and allocates no more than a small
// multiple of the bytes it was given, so no count field can size an
// allocation. Whatever decodes re-encodes to the identical bytes. The
// checksum screens random payloads, so every input is also tried as the
// payload of a correctly sealed frame of each kind, which takes a
// mutation through to the field decoders.
func FuzzShardFrames(f *testing.F) {
	f.Add([]byte{})
	for _, frame := range shardFrameSeeds() {
		f.Add(frame)
		f.Add(frame[FrameHeaderLen:]) // the payload alone: sealed below
		f.Add(frame[:len(frame)-1])
		f.Add(append(bytes.Clone(frame), 0))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range shardCodecs {
			h := EncodeFrame(c.magic, shardWireVersion, data)
			for _, in := range [][]byte{data, append(h[:], data...)} {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				v, err := c.decode(in)
				runtime.ReadMemStats(&after)
				if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(2*len(in))+16<<10 {
					t.Fatalf("%s: decoding %d bytes allocated %d", c.name, len(in), grew)
				}
				if err != nil {
					continue
				}
				if got := c.encode(v); !bytes.Equal(got, in) {
					t.Fatalf("%s: re-encoding changed the frame\n got %x\nwant %x", c.name, got, in)
				}
			}
		}
	})
}

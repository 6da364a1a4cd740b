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

// shardFrameSeeds returns valid frames of each kind, carrying +Inf, -0
// and subnormal costs, IDs whose top bit is set, and empty lists.
func shardFrameSeeds() [][]byte {
	sub := math.SmallestNonzeroFloat64
	negZero := math.Copysign(0, -1)
	fp := [32]byte{0: 0xfe, 31: 0x01}
	return [][]byte{
		EncodeCorridorQuery(CorridorQuery{Bound: math.Inf(1), Weight: WeightTime}),
		EncodeCorridorQuery(CorridorQuery{
			Bound: negZero, Weight: WeightAuto,
			RSeeds: []spath.Seed{{V: 7, Dist: 12.5}, {V: 7, Dist: math.MaxFloat64}},
		}),
		EncodeCorridorAnswer(fp, []roadnet.Vertex{{ID: -1, Point: geo.Point{Lon: math.Inf(-1), Lat: -90}}}, nil),
		EncodeCorridorAnswer([32]byte{}, nil,
			[]roadnet.Edge{{ID: 1 << 30, From: -1, To: 0, Length: 0, Time: sub, Category: roadnet.Category(255)}}),
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
	// The decoded frames carry the raw bits, not just equal values.
	q, err := DecodeCorridorQuery(shardFrameSeeds()[4])
	if err != nil {
		t.Fatal(err)
	}
	if q.Seeds[1].Dist != math.Inf(1) || q.RSeeds[0].Dist != math.SmallestNonzeroFloat64 || !math.Signbit(q.RSeeds[1].Dist) {
		t.Fatalf("corridor seeds lost bits: %+v", q)
	}
	a, err := DecodeCorridorAnswer(shardFrameSeeds()[5])
	if err != nil {
		t.Fatal(err)
	}
	if v, e := a.Vertex(1), a.Edge(0); !math.Signbit(v.Point.Lon) || v.Point.Lat != math.SmallestNonzeroFloat64 ||
		e.Length != math.SmallestNonzeroFloat64 || !math.Signbit(e.Time) || !math.IsInf(a.Edge(1).Length, 1) {
		t.Fatalf("corridor records lost bits: %+v %+v", v, e)
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

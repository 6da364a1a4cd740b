package nn

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// paramWire is the struct whose encoding/gob stream the params format is
// (serialize.go): the tests' reference for what the hand codec writes and
// reads.
type paramWire struct {
	Name   string
	Rows   int
	Cols   int
	W      []float64
	Frozen bool
}

// FuzzParamsCodec holds the params encoder to encoding/gob, which defines
// the format. recipe builds a parameter list — arbitrary names, shapes,
// Frozen flags and weight bits (NaN payloads, ±0, ±Inf, subnormals) —
// whose encoding must be paramsPreamble and gob's value message byte for
// byte, hash to its fingerprint and load back bit-exactly.
func FuzzParamsCodec(f *testing.F) {
	for _, recipe := range paramsSeeds {
		f.Add(recipe)
	}
	f.Fuzz(func(t *testing.T, recipe []byte) {
		checkEncoder(t, recipeParams(recipe))
	})
}

// paramsSeeds are the params fuzz targets' seed recipes: NaN payloads,
// ±0, ±Inf, subnormals, one-byte weights (2 and -2 have one set byte,
// below and above 0x80), frozen params, zero and negative shapes, and
// params without weights.
var paramsSeeds = [][]byte{
	recipeBytes(0b1111, "w", 2, 3,
		0x7ff8000000000001, 0xfff0000000000001, 0x8000000000000000, 0x7ff0000000000000,
		0xfff0000000000000, 1, 0x000fffffffffffff, 0),
	recipeBytes(0, "", 0, 0),
	append(recipeBytes(1, "", 0, 0), recipeBytes(0b1001, "", 0, -7, 0)...),
	recipeBytes(0b1100, "", -1, 1<<40, 0x3ff0000000000000),
	append(recipeBytes(0b0011, "gru.W", 0, 0, 0x4000000000000000, 0xc000000000000000, 0x3fb999999999999a),
		recipeBytes(0b1110, "head.b", 1, 1, 0x8000000000000000)...),
}

// FuzzParamsDecode holds the hand decoder to encoding/gob, which defines
// the format: whenever decodeParams accepts the bytes behind
// paramsPreamble, gob accepts the stream too and gives the same names,
// shapes, weights and Frozen flags, bit for bit. recipe gives the target
// params (recipeParams) and body the value message; each seed's body is
// the encoder's for its recipe, which must load back bit-exactly
// (checkEncoder), so the mutations start from accepted streams.
func FuzzParamsDecode(f *testing.F) {
	for _, recipe := range paramsSeeds {
		stream, err := MarshalParams(recipeParams(recipe))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(recipe, stream[len(paramsPreamble):])
	}
	f.Fuzz(func(t *testing.T, recipe, body []byte) {
		ps := recipeParams(recipe)
		checkEncoder(t, ps)
		got := shapedLike(ps)
		if decodeParams(body, got) != nil {
			return
		}
		var wire []paramWire
		stream := append(slices.Clip(paramsPreamble), body...)
		if err := gob.NewDecoder(bytes.NewReader(stream)).Decode(&wire); err != nil {
			t.Fatalf("decodeParams accepted a stream gob refuses: %v", err)
		}
		if len(wire) != len(ps) {
			t.Fatalf("gob decoded %d params, decodeParams %d", len(wire), len(ps))
		}
		for i, pw := range wire {
			p := ps[i]
			if pw.Name != p.Name || pw.Rows != p.Rows || pw.Cols != p.Cols || len(pw.W) != len(p.W) {
				t.Fatalf("param %d: gob decoded %q %dx%d with %d weights, decodeParams accepted %q %dx%d with %d",
					i, pw.Name, pw.Rows, pw.Cols, len(pw.W), p.Name, p.Rows, p.Cols, len(p.W))
			}
		}
		requireSameParams(t, got, paramsOf(wire))
	})
}

// TestParamsDecodeRefusalIsFinal: streams encoding/gob reads and the
// hand decoder refuses fail the load, with no second try through gob. A
// refusal inside the value message names the param where there is one:
// gob leaves bytes after the value in its message unread, and ends a
// struct without its zero delta at the end of the message, and neither is
// what an encoder writes. A stream this format's writers never make, one
// whose preamble numbers the types otherwise (as builds that encoded their
// params through gob after other types wrote it) or one with bytes after
// its value message, is refused with a pointer to the operations guide.
func TestParamsDecodeRefusalIsFinal(t *testing.T) {
	ps := recipeParams(append(recipeBytes(0b0010, "a", 0, 0, 1, 2), recipeBytes(0b0011, "b", 0, 0, 3)...))
	stream, err := MarshalParams(ps)
	if err != nil {
		t.Fatal(err)
	}
	// The message length is one byte here.
	trailing := append(slices.Clip(stream), 0)
	trailing[len(paramsPreamble)]++
	unterminated := slices.Clone(stream[:len(stream)-1])
	unterminated[len(paramsPreamble)]--
	var shifted bytes.Buffer
	enc := gob.NewEncoder(&shifted)
	if err := enc.Encode(struct{ Gen int }{1}); err != nil {
		t.Fatal(err)
	}
	shifted.Reset() // the params stream starts after the earlier type's messages
	if err := enc.Encode(wireOf(ps)); err != nil {
		t.Fatal(err)
	}
	const guide = `see docs/OPERATIONS.md "Files from older builds"`
	for _, tc := range []struct {
		name   string
		stream []byte
		want   string
	}{
		{"byte after the value", trailing, "1 bytes in the message after the last param"},
		{"no zero delta", unterminated, "param 1 (b): malformed end"},
		{"other type numbers", shifted.Bytes(), "does not open with this format's type preamble; " + guide},
		{"byte after the message", append(slices.Clip(stream), 0), "1 bytes after the value message; " + guide},
		{"message after the message", append(slices.Clip(stream), stream[len(paramsPreamble):]...), guide},
	} {
		var wire []paramWire
		if err := gob.NewDecoder(bytes.NewReader(tc.stream)).Decode(&wire); err != nil {
			t.Fatalf("%s: gob refuses the stream too: %v", tc.name, err)
		}
		err := UnmarshalParams(tc.stream, shapedLike(ps))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: UnmarshalParams = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestParamsDecodeEveryCountByte: whatever the first byte of a weight,
// followed by as many bytes as it counts (at most 20), decodeParams
// accepts the stream exactly when encoding/gob does, with the same bits,
// both where the weight ends the stream (the byte-wise tail) and where a
// param follows it (the 8-byte loads).
func TestParamsDecodeEveryCountByte(t *testing.T) {
	element := func(dst []byte, p *Param, weights []byte) []byte {
		dst, last := appendElemHead(dst, p)
		return appendElemTail(append(dst, weights...), p, last)
	}
	next := &Param{Name: "v", Rows: 1, Cols: 2, W: []float64{1.5, -3}}
	for c := range 256 {
		weight := []byte{byte(c)}
		if c >= 0x80 {
			for i := range min(-int(int8(c)), 20) {
				weight = append(weight, byte(0x31+i))
			}
		}
		for _, ps := range [][]*Param{
			{{Name: "w", Rows: 1, Cols: 1, W: make([]float64, 1)}},
			{{Name: "w", Rows: 1, Cols: 1, W: make([]float64, 1)}, next},
		} {
			msg := appendUint(append(appendUint(nil, zigzag(paramsTypeID)), 0), uint64(len(ps)))
			msg = element(msg, ps[0], weight)
			for _, p := range ps[1:] {
				msg = element(msg, p, appendFloats(nil, p.W))
			}
			stream := append(appendUint(slices.Clip(paramsPreamble), uint64(len(msg))), msg...)
			got := shapedLike(ps)
			err := UnmarshalParams(stream, got)
			var wire []paramWire
			gobErr := gob.NewDecoder(bytes.NewReader(stream)).Decode(&wire)
			if (err == nil) != (gobErr == nil) {
				t.Fatalf("first byte %#x, %d params: decodeParams %v, gob %v", c, len(ps), err, gobErr)
			}
			if err == nil {
				requireSameParams(t, got, paramsOf(wire))
			}
		}
	}
}

// checkEncoder requires the stream for ps to be paramsPreamble and gob's
// value message for the same weights, and to load back bit-exactly.
func checkEncoder(t *testing.T, ps []*Param) {
	t.Helper()
	ours, err := MarshalParams(ps)
	if err != nil {
		t.Fatal(err)
	}
	var ref bytes.Buffer
	if err := gob.NewEncoder(&ref).Encode(wireOf(ps)); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(ours, paramsPreamble) {
		t.Fatalf("stream does not start with the pinned preamble: % x", ours[:min(len(ours), 16)])
	}
	gotID, got := valueMessage(t, ours[len(paramsPreamble):])
	_, want := valueMessage(t, ref.Bytes())
	if gotID != paramsTypeID || !bytes.Equal(got, want) {
		t.Fatalf("value message (type %d)\n% x\ngob's\n% x", gotID, got, want)
	}
	if sum, err := ParamsFingerprint(ps); err != nil || sum != sha256.Sum256(ours) {
		t.Fatalf("fingerprint %x (%v) is not the stream's SHA-256", sum, err)
	}
	back := shapedLike(ps)
	if err := UnmarshalParams(ours, back); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	requireSameParams(t, back, ps)
}

// TestGobFits: the encoder's size limit is gob's own. gob's decoder checks
// a message's length against the same limit as its encoder before it
// reads a byte of the message, so a stream that only claims a length is
// enough to find where gob's limit lies.
func TestGobFits(t *testing.T) {
	for _, size := range []uint64{gobTooBig - 1, gobTooBig, gobTooBig + 1} {
		var wire []paramWire
		err := gob.NewDecoder(bytes.NewReader(binary.BigEndian.AppendUint64([]byte{0xf8}, size))).Decode(&wire)
		if gobTakes := errors.Is(err, io.ErrUnexpectedEOF); gobFits(size) != gobTakes {
			t.Errorf("size %d: gobFits %v, gob's decoder: %v", size, gobFits(size), err)
		}
	}
}

// valueMessage walks a gob stream past its type definitions and returns the
// first value message's type number and its bytes after that number.
func valueMessage(t *testing.T, stream []byte) (int64, []byte) {
	t.Helper()
	for len(stream) > 0 {
		size, n := readUint(t, stream)
		if uint64(len(stream)-n) < size {
			t.Fatalf("malformed message length in % x", stream[:min(len(stream), 16)])
		}
		msg := stream[n : n+int(size)]
		stream = stream[n+int(size):]
		u, n := readUint(t, msg)
		if id := int64(u >> 1); u&1 == 0 && id > 0 {
			return id, msg[n:]
		}
	}
	t.Fatal("stream has no value message")
	return 0, nil
}

// readUint reads one uint in gob's encoding and returns its length.
func readUint(t *testing.T, b []byte) (uint64, int) {
	t.Helper()
	if len(b) > 0 && b[0] < 0x80 {
		return uint64(b[0]), 1
	}
	k := 0
	if len(b) > 0 {
		k = int(-int8(b[0]))
	}
	if k < 1 || k > 8 || len(b) <= k {
		t.Fatalf("malformed uint in % x", b[:min(len(b), 16)])
	}
	var x uint64
	for _, d := range b[1 : 1+k] {
		x = x<<8 | uint64(d)
	}
	return x, 1 + k
}

// paramsOf is wireOf's inverse.
func paramsOf(wire []paramWire) []*Param {
	ps := make([]*Param, len(wire))
	for i, pw := range wire {
		ps[i] = &Param{Name: pw.Name, Rows: pw.Rows, Cols: pw.Cols, W: pw.W, Frozen: pw.Frozen}
	}
	return ps
}

func wireOf(ps []*Param) []paramWire {
	wire := make([]paramWire, len(ps))
	for i, p := range ps {
		wire[i] = paramWire{Name: p.Name, Rows: p.Rows, Cols: p.Cols, W: p.W, Frozen: p.Frozen}
	}
	return wire
}

// shapedLike returns parameters with ps's names and shapes and zero
// weights, unfrozen.
func shapedLike(ps []*Param) []*Param {
	out := make([]*Param, len(ps))
	for i, p := range ps {
		out[i] = &Param{Name: p.Name, Rows: p.Rows, Cols: p.Cols, W: make([]float64, len(p.W))}
	}
	return out
}

func requireSameParams(t *testing.T, got, want []*Param) {
	t.Helper()
	for i, p := range want {
		if got[i].Frozen != p.Frozen {
			t.Fatalf("param %d frozen %v, want %v", i, got[i].Frozen, p.Frozen)
		}
		for j := range p.W {
			if math.Float64bits(got[i].W[j]) != math.Float64bits(p.W[j]) {
				t.Fatalf("param %d weight %d: %x, want %x", i, j, math.Float64bits(got[i].W[j]), math.Float64bits(p.W[j]))
			}
		}
	}
}

// recipeParams builds up to eight parameters from fuzz bytes. Per
// parameter: a flag byte (bit 0 Frozen, bits 1-3 set Name, Rows, Cols),
// then the name's length and bytes, rows and cols as int64s shifted right
// by a byte-chosen amount (so small and negative shapes are common), a
// weight count and each weight's raw bits.
func recipeParams(b []byte) []*Param {
	next := func() byte {
		if len(b) == 0 {
			return 0
		}
		c := b[0]
		b = b[1:]
		return c
	}
	word := func() uint64 {
		var x [8]byte
		n := copy(x[:], b)
		b = b[n:]
		return binary.LittleEndian.Uint64(x[:])
	}
	var ps []*Param
	for len(b) > 0 && len(ps) < 8 {
		flags := next()
		p := &Param{Frozen: flags&1 != 0}
		if flags&2 != 0 {
			n := min(int(next()%24), len(b))
			p.Name, b = string(b[:n]), b[n:]
		}
		if flags&4 != 0 {
			p.Rows = int(int64(word()) >> (next() % 64))
		}
		if flags&8 != 0 {
			p.Cols = int(int64(word()) >> (next() % 64))
		}
		p.W = make([]float64, next()%12)
		for i := range p.W {
			p.W[i] = math.Float64frombits(word())
		}
		ps = append(ps, p)
	}
	return ps
}

// recipeBytes is the recipe of one parameter for recipeParams.
func recipeBytes(flags byte, name string, rows, cols int64, weights ...uint64) []byte {
	b := []byte{flags}
	if flags&2 != 0 {
		b = append(append(b, byte(len(name))), name...)
	}
	if flags&4 != 0 {
		b = append(binary.LittleEndian.AppendUint64(b, uint64(rows)), 0)
	}
	if flags&8 != 0 {
		b = append(binary.LittleEndian.AppendUint64(b, uint64(cols)), 0)
	}
	b = append(b, byte(len(weights)))
	for _, w := range weights {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

// servedParams are the parameters of the served model's shape: a 3,152 x
// 128 embedding table, a GRU of hidden size 64 and the score head.
func servedParams() []*Param {
	rng := rand.New(rand.NewSource(1))
	ps := NewEmbedding(3152, 128, rng).Params()
	ps = append(ps, NewGRU("gru", 128, 64, rng).Params()...)
	return append(ps, NewDense("head", 64, 1, rng).Params()...)
}

// BenchmarkParamsCodec times the three things every set-up, retrain
// generation and bundle build does with the served model's weights.
func BenchmarkParamsCodec(b *testing.B) {
	ps := servedParams()
	stream, err := MarshalParams(ps)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(stream)))
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			if _, err := MarshalParams(ps); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		dst := shapedLike(ps)
		b.SetBytes(int64(len(stream)))
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			if err := UnmarshalParams(stream, dst); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fingerprint", func(b *testing.B) {
		b.SetBytes(int64(len(stream)))
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			if _, err := ParamsFingerprint(ps); err != nil {
				b.Fatal(err)
			}
		}
	})
}

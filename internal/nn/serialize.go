package nn

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
)

// The params format is the encoding/gob stream of a []paramWire, byte for
// byte, written by the hand encoder below. Model fingerprints hash it and
// are compared across binaries (WAL markers, lineage, a bundle's shard
// map), so its bytes are pinned, preamble included:
//
//   - paramsPreamble is the three type-definition messages gob sends
//     before the value, with the type numbers every artifact's params have
//     carried: []float64 as 65, paramWire as 76, []paramWire as 77. gob
//     numbers types process-wide in the order they are first encoded, so
//     encoding through gob would tie the bytes, and every fingerprint, to
//     what else the process had encoded first; the constant does not.
//   - The value message follows gob's rules: uints in one byte below 0x80,
//     else a negated byte count and the big-endian bytes; ints zigzagged
//     into uints; strings and slices as a count and their elements; struct
//     fields as (field-number delta, value) pairs ending in a zero delta,
//     zero-valued fields omitted; a float64 as the uint of its byte-reversed
//     Float64bits.
//
// A stream is read back by the hand decoder below, straight into the
// weights, and only if it is paramsPreamble and one value message to its
// last byte: the shape every writer of the format has made since the
// preamble was pinned. Anything else, such as a stream an older build
// wrote through encoding/gob with other type numbers, is refused (see
// docs/OPERATIONS.md "Files from older builds"). paramWire, the struct
// gob encodes, is declared beside the tests, which hold the encoder to
// gob's bytes (FuzzParamsCodec) and the decoder to gob's values
// (FuzzParamsDecode): Name string, Rows int, Cols int, W []float64 and
// Frozen bool, in that order.

// paramsPreamble is the type-definition prefix of every params stream.
var paramsPreamble = []byte{
	// Type 77, []paramWire: a slice of type 76.
	0x0d, 0xff, 0x99, 0x02, 0x01, 0x02, 0xff, 0x9a, 0x00, 0x01, 0xff, 0x98, 0x00, 0x00,
	// Type 76, struct paramWire: its five fields and their types.
	0x44, 0xff, 0x97, 0x03, 0x01, 0x01, 0x09, 'p', 'a', 'r', 'a', 'm', 'W', 'i', 'r', 'e',
	0x01, 0xff, 0x98, 0x00, 0x01, 0x05,
	0x01, 0x04, 'N', 'a', 'm', 'e', 0x01, 0x0c, 0x00, // string
	0x01, 0x04, 'R', 'o', 'w', 's', 0x01, 0x04, 0x00, // int
	0x01, 0x04, 'C', 'o', 'l', 's', 0x01, 0x04, 0x00, // int
	0x01, 0x01, 'W', 0x01, 0xff, 0x82, 0x00, // type 65
	0x01, 0x06, 'F', 'r', 'o', 'z', 'e', 'n', 0x01, 0x02, 0x00, // bool
	0x00, 0x00,
	// Type 65, []float64.
	0x0c, 0xff, 0x81, 0x02, 0x01, 0x02, 0xff, 0x82, 0x00, 0x01, 0x08, 0x00, 0x00,
}

const (
	// paramsTypeID is []paramWire's number in paramsPreamble.
	paramsTypeID = 77
	// gobTooBig is the message size from which gob refuses to encode or
	// decode a message: encoding/gob's tooBig, 1 GiB on 32-bit platforms
	// and 8 GiB on 64-bit ones.
	gobTooBig = (1 << 30) << (^uint(0) >> 62)
	// paramsChunk is how many bytes SaveParams buffers per write.
	paramsChunk = 32 << 10
)

// Field numbers of paramWire, in declaration order.
const (
	fieldName = iota
	fieldRows
	fieldCols
	fieldW
	fieldFrozen
)

// SaveParams writes the weights of params to w (format above).
func SaveParams(w io.Writer, params []*Param) error {
	_, err := encodeParams(w, params)
	return err
}

// encodeParams writes params' stream to w in chunks of about paramsChunk
// bytes or, when w is nil, returns it whole.
func encodeParams(w io.Writer, params []*Param) ([]byte, error) {
	var scratch []byte
	body := uintLen(zigzag(paramsTypeID)) + 1 + uintLen(uint64(len(params)))
	floats, weights := 0, 0
	for _, p := range params {
		var last int
		scratch, last = appendElemHead(scratch[:0], p)
		scratch = appendElemTail(scratch, p, last)
		body += len(scratch)
		floats += floatsLen(p.W)
		weights += len(p.W)
	}
	body += floats
	if !gobFits(uint64(body)) {
		return nil, fmt.Errorf("nn: encode params: %d-byte message exceeds gob's limit", body)
	}
	var buf []byte
	if w != nil {
		buf = make([]byte, 0, paramsChunk+len(paramsPreamble))
	} else { // room for appendFloats' 9 bytes per weight
		buf = make([]byte, 0, len(paramsPreamble)+uintLen(uint64(body))+body-floats+9*weights)
	}
	buf = append(buf, paramsPreamble...)
	buf = appendUint(buf, uint64(body))
	buf = appendUint(buf, zigzag(paramsTypeID))
	buf = append(buf, 0) // delta to the value's one field: the slice
	buf = appendUint(buf, uint64(len(params)))
	flush := func() error {
		_, err := w.Write(buf)
		buf = buf[:0]
		if err != nil {
			return fmt.Errorf("nn: encode params: %w", err)
		}
		return nil
	}
	for _, p := range params {
		var last int
		buf, last = appendElemHead(buf, p)
		for rest := p.W; len(rest) > 0; {
			n := len(rest)
			if w != nil {
				if len(buf) > paramsChunk-9 {
					if err := flush(); err != nil {
						return nil, err
					}
				}
				n = min(n, (paramsChunk-len(buf))/9)
			}
			buf = appendFloats(buf, rest[:n])
			rest = rest[n:]
		}
		buf = appendElemTail(buf, p, last)
	}
	if w == nil {
		return buf, nil
	}
	return nil, flush()
}

// gobFits reports whether gob encodes and decodes a message of size bytes.
func gobFits(size uint64) bool { return size < gobTooBig }

// appendElemHead appends p's element up to its weights — the Name, Rows
// and Cols fields and W's count, each omitted when zero — and returns the
// last field it wrote, or -1.
func appendElemHead(dst []byte, p *Param) ([]byte, int) {
	last := -1
	field := func(f int) {
		dst = appendUint(dst, uint64(f-last))
		last = f
	}
	if p.Name != "" {
		field(fieldName)
		dst = appendUint(dst, uint64(len(p.Name)))
		dst = append(dst, p.Name...)
	}
	if p.Rows != 0 {
		field(fieldRows)
		dst = appendUint(dst, zigzag(int64(p.Rows)))
	}
	if p.Cols != 0 {
		field(fieldCols)
		dst = appendUint(dst, zigzag(int64(p.Cols)))
	}
	if len(p.W) != 0 {
		field(fieldW)
		dst = appendUint(dst, uint64(len(p.W)))
	}
	return dst, last
}

// appendElemTail appends what follows p's weights: Frozen when set, and
// the element's end.
func appendElemTail(dst []byte, p *Param, last int) []byte {
	if p.Frozen {
		dst = append(dst, byte(fieldFrozen-last), 1)
	}
	return append(dst, 0)
}

// appendFloats appends each weight as gob does: the uint of its
// byte-reversed bits, which is a count byte and the float's bits low byte
// first with their trailing zero bytes dropped — or, when only the top
// byte is set and below 0x80, that byte alone.
func appendFloats(dst []byte, w []float64) []byte {
	i := len(dst)
	dst = slices.Grow(dst, 9*len(w))[:i+9*len(w)] // a weight takes at most 9 bytes
	for _, x := range w {
		u := math.Float64bits(x)
		if u<<8 == 0 && u < 1<<63 {
			dst[i] = byte(u >> 56)
			i++
			continue
		}
		tz := bits.TrailingZeros64(u) &^ 7
		dst[i] = byte(tz>>3 - 8) // minus the byte count
		binary.LittleEndian.PutUint64(dst[i+1:], u>>tz)
		i += 9 - tz>>3
	}
	return dst[:i]
}

// floatsLen is the length appendFloats adds for w.
func floatsLen(w []float64) int {
	n := 0
	for _, x := range w {
		if u := math.Float64bits(x); u<<8 == 0 && u < 1<<63 {
			n++
		} else {
			n += 9 - bits.TrailingZeros64(u)>>3
		}
	}
	return n
}

// appendUint appends x in gob's uint encoding.
func appendUint(dst []byte, x uint64) []byte {
	if x < 0x80 {
		return append(dst, byte(x))
	}
	var b [9]byte
	binary.BigEndian.PutUint64(b[1:], x)
	lz := bits.LeadingZeros64(x) >> 3
	b[lz] = byte(lz - 8) // minus the byte count
	return append(dst, b[lz:]...)
}

// uintLen is the length appendUint adds for x.
func uintLen(x uint64) int {
	if x < 0x80 {
		return 1
	}
	return 9 - bits.LeadingZeros64(x)>>3
}

// zigzag maps an int onto gob's uint form of it.
func zigzag(i int64) uint64 {
	if i < 0 {
		return uint64(^i<<1) | 1
	}
	return uint64(i << 1)
}

// MarshalParams returns the SaveParams encoding of params as a byte slice,
// for callers that embed model weights inside a larger container (the
// pathrank artifact bundle).
func MarshalParams(params []*Param) ([]byte, error) { return encodeParams(nil, params) }

// UnmarshalParams loads weights written by SaveParams into params,
// matching by position and verifying name and shape. data must be
// paramsPreamble and the value message decodeParams reads, to its last
// byte; any other stream is refused.
func UnmarshalParams(data []byte, params []*Param) error {
	body, ok := bytes.CutPrefix(data, paramsPreamble)
	if !ok {
		return fmt.Errorf("nn: decode params: the stream does not open with this format's type preamble; %s", olderFiles)
	}
	return decodeParams(body, params)
}

// olderFiles points a refused stream's error to what to do about it.
const olderFiles = `see docs/OPERATIONS.md "Files from older builds"`

// decodeParams reads the value message that follows paramsPreamble
// straight into params' weights. It is the encoder's inverse: the value's
// head and each element's bytes up to its weights must be what the
// encoder writes for the model's params, and each element must end as
// appendElemTail ends it, Frozen set or not. It thus accepts a subset of
// what gob accepts, with the same result (FuzzParamsDecode), and refuses
// bytes after the message, which gob would leave unread. A failure names
// the param it is in; the params before it, and part of that one, may
// already hold new weights.
func decodeParams(b []byte, params []*Param) error {
	size, b, ok := cutUint(b)
	if !ok || size > uint64(len(b)) || !gobFits(size) {
		return fmt.Errorf("nn: decode params: malformed message length after the preamble")
	}
	if extra := uint64(len(b)) - size; extra != 0 {
		return fmt.Errorf("nn: decode params: %d bytes after the value message; %s", extra, olderFiles)
	}
	want := appendUint(append(appendUint(make([]byte, 0, 64), zigzag(paramsTypeID)), 0), uint64(len(params)))
	if b, ok = bytes.CutPrefix(b, want); !ok {
		return fmt.Errorf("nn: decode params: the stream does not hold a list of the model's %d params", len(params))
	}
	for i, p := range params {
		var last int
		want, last = appendElemHead(want[:0], p)
		if b, ok = bytes.CutPrefix(b, want); !ok {
			return fmt.Errorf("nn: decode params: param %d: the stream does not hold the model's %s(%dx%d) with %d weights",
				i, p.Name, p.Rows, p.Cols, len(p.W))
		}
		if b, ok = decodeFloats(b, p.W); !ok {
			return fmt.Errorf("nn: decode params: param %d (%s): truncated or malformed weights", i, p.Name)
		}
		switch { // appendElemTail's two endings
		case len(b) >= 1 && b[0] == 0:
			p.Frozen, b = false, b[1:]
		case len(b) >= 3 && b[0] == byte(fieldFrozen-last) && b[1] == 1 && b[2] == 0:
			p.Frozen, b = true, b[3:]
		default:
			return fmt.Errorf("nn: decode params: param %d (%s): malformed end", i, p.Name)
		}
	}
	if len(b) != 0 {
		return fmt.Errorf("nn: decode params: %d bytes in the message after the last param", len(b))
	}
	return nil
}

// decodeFloats reads len(w) weights in appendFloats' encoding into w and
// returns what follows them. While 9 bytes remain, a weight of k bytes is
// one unaligned little-endian load shifted left past the 8-k bytes that
// are not its own.
func decodeFloats(b []byte, w []float64) ([]byte, bool) {
	i, j := 0, 0
	for ; j < len(w) && i+9 <= len(b); j++ {
		c := b[i]
		u := binary.LittleEndian.Uint64(b[i+1 : i+9])
		if c < 0x80 {
			w[j] = math.Float64frombits(uint64(c) << 56)
			i++
			continue
		}
		k := -int(int8(c))
		if k > 8 {
			return nil, false
		}
		w[j] = math.Float64frombits(u << ((64 - 8*k) & 63))
		i += 1 + k
	}
	b = b[i:]
	for ; j < len(w); j++ {
		x, rest, ok := cutUint(b)
		if !ok {
			return nil, false
		}
		w[j] = math.Float64frombits(bits.ReverseBytes64(x))
		b = rest
	}
	return b, true
}

// cutUint reads one uint in gob's encoding off the front of b, accepting
// what gob's decoder accepts: a byte below 0x80, or a negated count of 1
// to 8 and that many big-endian bytes.
func cutUint(b []byte) (x uint64, rest []byte, ok bool) {
	if len(b) == 0 {
		return 0, nil, false
	}
	if b[0] < 0x80 {
		return uint64(b[0]), b[1:], true
	}
	k := -int(int8(b[0]))
	if k > 8 || len(b) <= k {
		return 0, nil, false
	}
	for _, d := range b[1 : 1+k] {
		x = x<<8 | uint64(d)
	}
	return x, b[1+k:], true
}

// ParamsFingerprint returns a SHA-256 digest over the names, shapes, frozen
// flags, and exact weight encodings of params: the hash of their SaveParams
// stream. Two models have the same fingerprint iff their trainable state is
// bit-identical, which is how the artifact round-trip tests prove a
// reloaded model ranks identically.
func ParamsFingerprint(params []*Param) ([sha256.Size]byte, error) {
	h := sha256.New()
	var sum [sha256.Size]byte
	if err := SaveParams(h, params); err != nil {
		return sum, err
	}
	h.Sum(sum[:0])
	return sum, nil
}

// WAL record codec. Two record types flow through the trajectory log:
//
//   - observation records: one accepted (map-matched) trajectory each,
//     in a canonical binary form. These bytes are also the Merkle leaves
//     of the provenance batches, so the encoding must be deterministic —
//     same observation, same bytes, forever.
//   - retrain markers: one per committed generation, recording exactly
//     which observations (by ingest seq) the generation trained on, the
//     effective fine-tune configuration, and the resulting fingerprint
//     and Merkle roots. A marker is everything deterministic replay
//     needs beyond the base artifact and the observation records.
//
// Observation layout (integers big-endian):
//
//	offset  size  field
//	     0     1  record type walRecObservation
//	     1     8  ingest sequence number (int64)
//	     9     8  path cost (IEEE-754 float64 bits)
//	    17     4  vertex count nv (uint32)
//	    21     4  edge count ne (uint32; must be nv-1)
//	    25  4*nv  vertex IDs (int32)
//	     +  4*ne  edge IDs (int32)
//
// A retrain marker is the JSON of retrainMarker behind its type byte: it
// is rare (one per generation) and never a Merkle leaf, and encoding/json
// writes fields in declaration order with no global state, so its bytes
// are fixed by its content. Record type 0x02 (walRecGobMarker) held the
// gob markers of older builds; a log with one is refused, as
// docs/OPERATIONS.md "Files from older builds" says.
package stream

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"pathrank/internal/roadnet"
)

const (
	walRecObservation byte = 0x01
	walRecGobMarker   byte = 0x02
	walRecRetrain     byte = 0x03
)

// maxWALPathLen bounds the vertex/edge counts a decoded record may claim,
// mirroring the ingest-side record cap: a corrupt count fails decoding
// instead of attempting a giant allocation.
const maxWALPathLen = 1 << 20

// obsHeaderSize is the fixed prefix of an observation record.
const obsHeaderSize = 1 + 8 + 8 + 4 + 4

// encodeObservation renders o in the canonical WAL/Merkle-leaf form.
func encodeObservation(o observation) []byte {
	nv, ne := len(o.path.Vertices), len(o.path.Edges)
	buf := make([]byte, obsHeaderSize+4*nv+4*ne)
	buf[0] = walRecObservation
	binary.BigEndian.PutUint64(buf[1:9], uint64(o.seq))
	binary.BigEndian.PutUint64(buf[9:17], math.Float64bits(o.path.Cost))
	binary.BigEndian.PutUint32(buf[17:21], uint32(nv))
	binary.BigEndian.PutUint32(buf[21:25], uint32(ne))
	off := obsHeaderSize
	for _, v := range o.path.Vertices {
		binary.BigEndian.PutUint32(buf[off:off+4], uint32(v))
		off += 4
	}
	for _, e := range o.path.Edges {
		binary.BigEndian.PutUint32(buf[off:off+4], uint32(e))
		off += 4
	}
	return buf
}

// decodeObservation parses an observation record. It validates structure
// only; validateObservation checks the path against a concrete graph.
func decodeObservation(payload []byte) (observation, error) {
	var o observation
	if len(payload) < obsHeaderSize || payload[0] != walRecObservation {
		return o, fmt.Errorf("stream: malformed observation record (%d bytes)", len(payload))
	}
	o.seq = int64(binary.BigEndian.Uint64(payload[1:9]))
	o.path.Cost = math.Float64frombits(binary.BigEndian.Uint64(payload[9:17]))
	nv := binary.BigEndian.Uint32(payload[17:21])
	ne := binary.BigEndian.Uint32(payload[21:25])
	if nv > maxWALPathLen || ne != nv-1 {
		return o, fmt.Errorf("stream: observation record claims %d vertices, %d edges", nv, ne)
	}
	if want := obsHeaderSize + 4*int(nv) + 4*int(ne); len(payload) != want {
		return o, fmt.Errorf("stream: observation record is %d bytes, want %d", len(payload), want)
	}
	o.path.Vertices = make([]roadnet.VertexID, nv)
	o.path.Edges = make([]roadnet.EdgeID, ne)
	off := obsHeaderSize
	for i := range o.path.Vertices {
		o.path.Vertices[i] = roadnet.VertexID(binary.BigEndian.Uint32(payload[off : off+4]))
		off += 4
	}
	for i := range o.path.Edges {
		o.path.Edges[i] = roadnet.EdgeID(binary.BigEndian.Uint32(payload[off : off+4]))
		off += 4
	}
	return o, nil
}

// validateObservation rejects a decoded record whose path cannot belong to
// g — the signature of replaying a WAL against the wrong artifact.
func validateObservation(o observation, g *roadnet.Graph) error {
	if o.seq <= 0 {
		return fmt.Errorf("stream: observation has non-positive seq %d", o.seq)
	}
	nv, ne := int64(g.NumVertices()), int64(g.NumEdges())
	for _, v := range o.path.Vertices {
		if int64(v) < 0 || int64(v) >= nv {
			return fmt.Errorf("stream: observation %d references vertex %d outside the graph (%d vertices)", o.seq, v, nv)
		}
	}
	for _, e := range o.path.Edges {
		if int64(e) < 0 || int64(e) >= ne {
			return fmt.Errorf("stream: observation %d references edge %d outside the graph (%d edges)", o.seq, e, ne)
		}
	}
	return nil
}

// walLog is a trajectory log decoded in one pass: its observations and
// retrain markers, each in log order, and how many observations follow
// the last marker. The live service's restart and Replay both read a log
// through it.
type walLog struct {
	obs     []observation
	markers []retrainMarker
	pending int
}

// reader returns the record callback for wal.Open and wal.ReplayDir that
// decodes each record into l, validating an observation against g. Every
// error names its record; an observation whose path cannot belong to g is
// the signature of a log read against the wrong artifact, and its error
// says so.
func (l *walLog) reader(g *roadnet.Graph) func(uint64, []byte) error {
	return func(idx uint64, payload []byte) error {
		if len(payload) == 0 {
			return fmt.Errorf("stream: WAL record %d is empty", idx)
		}
		switch payload[0] {
		case walRecObservation:
			o, err := decodeObservation(payload)
			if err != nil {
				return fmt.Errorf("stream: WAL record %d: %w", idx, err)
			}
			if err := validateObservation(o, g); err != nil {
				return fmt.Errorf("stream: WAL record %d: %w (wrong base artifact?)", idx, err)
			}
			l.obs = append(l.obs, o)
			l.pending++
		case walRecGobMarker:
			return fmt.Errorf("stream: WAL record %d is a gob retrain marker (type 0x02), which this build does not read; see docs/OPERATIONS.md \"Files from older builds\"", idx)
		case walRecRetrain:
			m, err := decodeRetrainMarker(payload)
			if err != nil {
				return fmt.Errorf("stream: WAL record %d: %w", idx, err)
			}
			l.markers = append(l.markers, m)
			l.pending = 0
		default:
			return fmt.Errorf("stream: WAL record %d has unknown type 0x%02x", idx, payload[0])
		}
		return nil
	}
}

// retrainMarker is the per-generation commit record. Everything replay
// needs that is not in the base artifact or the observation records lives
// here; WindowSeqs pins the exact training set, so replay is independent
// of the window's eviction policy.
type retrainMarker struct {
	// Generation is the lineage generation the retrain produced.
	Generation int
	// Parent and Result are the model fingerprints (hex) before and after
	// the fine-tune.
	Parent string
	Result string
	// DataRoot and ChainRoot are the Merkle commitments stamped into the
	// generation's lineage.
	DataRoot  string
	ChainRoot string
	// WindowSeqs lists the ingest seqs of the training window in training
	// order (sorted ascending).
	WindowSeqs []int64
	// Effective fine-tune configuration (zero Epochs/LR fall back to
	// pathrank.DefaultFineTuneConfig inside FineTune, identically on
	// replay). Seed is the already-adjusted per-generation seed.
	Epochs   int
	LR       float64
	ClipNorm float64
	LRDecay  float64
	Seed     int64
}

// encodeRetrainMarker renders m as a WAL record.
func encodeRetrainMarker(m retrainMarker) ([]byte, error) {
	b, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("stream: encode retrain marker: %w", err)
	}
	return append([]byte{walRecRetrain}, b...), nil
}

// decodeRetrainMarker parses a WAL retrain marker. It must be the bytes
// encodeRetrainMarker writes for its content: any other spelling of it was
// not written by this codec.
func decodeRetrainMarker(payload []byte) (retrainMarker, error) {
	var m retrainMarker
	if len(payload) == 0 || payload[0] != walRecRetrain {
		return m, fmt.Errorf("stream: malformed retrain marker (%d bytes)", len(payload))
	}
	if err := json.Unmarshal(payload[1:], &m); err != nil {
		return m, fmt.Errorf("stream: decode retrain marker: %w", err)
	}
	if enc, _ := encodeRetrainMarker(m); !bytes.Equal(enc, payload) {
		return m, fmt.Errorf("stream: decode retrain marker: not in canonical form")
	}
	if m.Generation <= 0 || len(m.WindowSeqs) == 0 {
		return m, fmt.Errorf("stream: implausible retrain marker (generation %d, %d window seqs)", m.Generation, len(m.WindowSeqs))
	}
	return m, nil
}

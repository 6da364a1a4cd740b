package pathrank

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"pathrank/internal/dataset"
	"pathrank/internal/fault"
	"pathrank/internal/nn"
	"pathrank/internal/roadnet"
	"pathrank/internal/spath"
)

// Artifact is a complete trained PathRank deployment: the road network the
// model was trained on, the model itself (its embedding matrix holds the
// vertex vectors node2vec initialized), and the candidate-generation
// configuration used at query time. It is the unit of persistence between
// training (pathrank-train) and serving (pathrank-serve).
type Artifact struct {
	Graph      *roadnet.Graph
	Model      *Model
	Candidates dataset.Config
	// Prep is kept only because benchmark/ names it; ROADMAP item 4
	// removes it. Nothing reads it: SaveArtifact ignores it and the
	// loaders leave it nil.
	Prep *spath.Prep
	// Lineage records where this artifact came from in an incremental
	// training chain; the zero value denotes an unstamped (pre-lineage or
	// externally assembled) artifact.
	Lineage Lineage
	// Shard is set when this artifact is one shard of a partitioned
	// deployment (see internal/partition); nil for whole-graph artifacts.
	Shard *ShardInfo
	// closeFn releases the memory mapping backing a mapped artifact; see
	// Close. Nil for ordinarily loaded artifacts.
	closeFn func() error
}

// Lineage is the provenance of an artifact in an incremental-training
// chain. Generation 0 is an offline (from-scratch) training run; each
// incremental fine-tune bumps Generation and records the parent model's
// fingerprint, so a chain of artifacts can be audited back to its root.
type Lineage struct {
	// Generation counts fine-tune steps since the offline root (0 = root).
	Generation int
	// Parent is the hex SHA-256 fingerprint of the model this one was
	// warm-started from; empty for generation 0.
	Parent string
	// TrainedOn is the number of observations (trajectory paths) in the
	// window this generation was fine-tuned on; for generation 0 it is the
	// offline training-query count.
	TrainedOn int
	// TotalObserved accumulates TrainedOn across the whole chain.
	TotalObserved int
	// Note is a free-form provenance annotation ("offline", "stream", …).
	Note string
	// DataRoot is the hex Merkle root (internal/merkle, RFC 6962 shape)
	// over the canonical WAL encodings of the trajectory observations this
	// generation was fine-tuned on, in training (ingest-sequence) order.
	// Together with a per-trajectory inclusion proof it makes the training
	// set verifiable; empty for offline generations and in artifacts
	// written before provenance existed.
	DataRoot string
	// ChainRoot is the hex chained commitment over the whole generation
	// history: merkle.ChainRoot(parent ChainRoot, DataRoot), with the zero
	// hash as genesis. Two artifacts with equal ChainRoot were trained on
	// byte-identical data histories.
	ChainRoot string
}

// Child returns the lineage of an artifact fine-tuned from a model with
// fingerprint parentFP on trainedOn new observations.
func (l Lineage) Child(parentFP string, trainedOn int, note string) Lineage {
	return Lineage{
		Generation:    l.Generation + 1,
		Parent:        parentFP,
		TrainedOn:     trainedOn,
		TotalObserved: l.TotalObserved + trainedOn,
		Note:          note,
	}
}

// NewRanker wraps the artifact's model and graph for query-time use, with
// the artifact's candidate configuration. The ranker's Engine is a plain
// Dijkstra point query under the length metric (see Ranker.Engine).
func (a *Artifact) NewRanker() *Ranker {
	r := NewRanker(a.Graph, a.Model)
	if a.Candidates.K > 0 {
		r.Candidates = a.Candidates
	}
	r.Engine = spath.DijkstraEngine(a.Graph)
	return r
}

// Fingerprint returns a SHA-256 digest of the model's trainable state: the
// hash of its params stream. Bit-identical weights produce identical
// fingerprints. A model LoadModel built from a canonical params stream
// returns that stream's hash, and a model a save has encoded hashes that
// stream; any other model encodes its weights to hash them.
func (m *Model) Fingerprint() ([sha256.Size]byte, error) {
	if fp := m.loadedFP.Load(); fp != nil {
		return *fp, nil
	}
	if p := m.stream.Load(); p != nil {
		return sha256.Sum256(*p), nil
	}
	return nn.ParamsFingerprint(m.params)
}

// FingerprintHex returns the model fingerprint as a lowercase hex string,
// the form used in lineage records and the serving API.
func (m *Model) FingerprintHex() (string, error) {
	fp, err := m.Fingerprint()
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(fp[:]), nil
}

// ShardInfo identifies an artifact as one shard of a partitioned
// deployment. A shard artifact keeps the FULL vertex table under global
// IDs (so the model's vertex vocabulary — and therefore its scores — are
// unchanged) but only the edges induced by its owned vertex set,
// renumbered densely; EdgeGlobal maps them back to full-graph edge IDs
// so the router can stitch shard answers into full-graph terms.
type ShardInfo struct {
	// Index is this shard's position in [0, Parts).
	Index int
	// Parts is the partition count of the bundle this shard belongs to.
	Parts int
	// Boundary lists this shard's boundary vertices (owned vertices
	// incident to at least one cut edge), ascending, as global vertex IDs.
	Boundary []roadnet.VertexID
	// EdgeGlobal maps local (induced-subgraph) edge IDs to the full
	// graph's edge IDs; len equals the shard graph's edge count.
	EdgeGlobal []roadnet.EdgeID
}

// Artifact file format. This build writes version 4:
//
//	offset            content
//	0                 52-byte frame header (frame.go); its SHA-256 covers
//	                  the payload
//	52                payload: RawDigest (32 bytes), the JSON header's
//	                  length h (big-endian uint64), h bytes of JSON
//	                  (artifactWire), then the params stream to its end
//	52+plen           zero padding to the next 8-byte boundary, then the
//	                  raw section: directory + flat arrays (rawsection.go)
//
// No byte depends on the writing process: encoding/json keeps no global
// state and writes a struct's fields in declaration order. The graph lives
// in the raw section as the exact arrays queries run on, so loading is
// reinterpretation, not deserialization.
// RawDigest is the SHA-256 of every byte after the payload; sitting inside
// the checksummed payload, it extends the header checksum to the whole
// file. The two loaders differ only in what they verify:
//
//   - LoadArtifact / LoadArtifactFile read the file onto the heap, verify
//     the payload checksum AND the raw digest, and validate the content of
//     every array (arbitrary bytes reach this path: foreign files, fuzzing,
//     a hot-swap candidate). Any corruption anywhere in the file is
//     ErrArtifactCorrupt or ErrArtifactFormat.
//   - LoadArtifactFileMapped mmaps the file, verifies the payload checksum
//     and the directory bounds, and trusts the arrays' bytes — hashing or
//     walking them would fault in every page, which is exactly what an
//     O(open) cold start avoids.
//
// Version 3, whose payload is the gob message of artifactWire, still loads;
// nothing writes it. gob skips a field the receiving struct lacks, so
// version-3 files written while the payload had a Prep or an Embeddings
// field load too. Version-3 and version-4 files whose raw section also
// holds a contraction hierarchy's 12 arrays load with those arrays skipped
// (rawsection.go). Versions 1 and 2 (graph and hierarchy inside the gob
// payload) are not read; docs/OPERATIONS.md says how to regenerate such a
// file.
const artifactVersion, gobArtifactVersion = 4, 3

// payloadPrefixLen is the fixed start of a version-4 payload: the raw
// digest and the header length.
const payloadPrefixLen = sha256.Size + 8

var artifactMagic = [8]byte{'P', 'R', 'A', 'R', 'T', 'F', 'C', 'T'}

// Artifact error sentinels, matchable with errors.Is.
var (
	// ErrArtifactFormat reports a file that is not a pathrank artifact.
	ErrArtifactFormat = errors.New("pathrank: not an artifact file")
	// ErrArtifactVersion reports an artifact written by an incompatible
	// format version.
	ErrArtifactVersion = errors.New("pathrank: unsupported artifact version")
	// ErrArtifactCorrupt reports a checksum mismatch or truncated payload.
	ErrArtifactCorrupt = errors.New("pathrank: artifact corrupt")
)

// artifactWire is an artifact's payload: a version-4 payload holds
// Params and RawDigest beside the JSON of the other fields, and a
// version-3 payload is the gob message of the whole struct.
type artifactWire struct {
	ModelConfig Config
	Candidates  dataset.Config
	Lineage     Lineage
	Params      []byte `json:"-"`
	// Shard marks a partitioned-deployment shard; nil otherwise.
	Shard     *ShardInfo
	RawDigest []byte `json:"-"`
}

// SaveArtifact writes the artifact to w in the format above.
func SaveArtifact(w io.Writer, a *Artifact) error {
	if a == nil || a.Graph == nil || a.Model == nil {
		return fmt.Errorf("pathrank: artifact needs a graph and a model")
	}
	head, err := json.Marshal(artifactWire{ModelConfig: a.Model.Config(), Candidates: a.Candidates, Lineage: a.Lineage, Shard: a.Shard})
	if err != nil {
		return fmt.Errorf("pathrank: encode artifact header: %w", err)
	}
	params, err := a.Model.paramsStream()
	if err != nil {
		return fmt.Errorf("pathrank: artifact weights: %w", err)
	}
	gd := a.Graph.RawData()
	slots := graphSlots(&gd)

	// The raw section holds absolute file offsets, so it depends on the
	// payload's length, while the payload holds the raw section's digest
	// in its first 32 bytes: lay the payload out, hash the raw section
	// after it, and write the sum over those bytes.
	payload := make([]byte, payloadPrefixLen, payloadPrefixLen+len(head)+len(params))
	binary.BigEndian.PutUint64(payload[sha256.Size:], uint64(len(head)))
	payload = append(append(payload, head...), params...)
	h := sha256.New()
	if err := writeRawSection(h, FrameHeaderLen+len(payload), slots); err != nil {
		return fmt.Errorf("pathrank: hash artifact raw section: %w", err)
	}
	h.Sum(payload[:0])

	header := EncodeFrame(artifactMagic, artifactVersion, payload)
	if _, err := w.Write(header[:]); err != nil {
		return fmt.Errorf("pathrank: write artifact header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("pathrank: write artifact payload: %w", err)
	}
	if err := writeRawSection(w, FrameHeaderLen+len(payload), slots); err != nil {
		return fmt.Errorf("pathrank: write artifact raw section: %w", err)
	}
	return nil
}

// LoadArtifact reads an artifact written by SaveArtifact onto the heap and
// verifies all of it — checksum, raw digest, and the content of every
// array — before reconstructing the graph and model. The returned
// model's weights are bit-identical to the saved ones.
func LoadArtifact(r io.Reader) (*Artifact, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: read: %v", ErrArtifactCorrupt, err)
	}
	// The arrays are reinterpreted in place, so the image must be aligned.
	data := alignedBytes(len(raw))
	copy(data, raw)
	return decodeArtifact(data, true)
}

// decodePayload decodes the payload of a file of the given version.
func decodePayload(payload []byte, version uint32) (wire artifactWire, err error) {
	if version == gobArtifactVersion {
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&wire); err != nil {
			return wire, fmt.Errorf("%w: decode payload: %v", ErrArtifactCorrupt, err)
		}
		return wire, nil
	}
	if len(payload) < payloadPrefixLen {
		return wire, fmt.Errorf("%w: payload of %d bytes is shorter than its prefix", ErrArtifactCorrupt, len(payload))
	}
	n := binary.BigEndian.Uint64(payload[sha256.Size:payloadPrefixLen])
	rest := payload[payloadPrefixLen:]
	if n > uint64(len(rest)) {
		return wire, fmt.Errorf("%w: header length %d exceeds the payload", ErrArtifactCorrupt, n)
	}
	if err := json.Unmarshal(rest[:n], &wire); err != nil {
		return wire, fmt.Errorf("%w: decode header: %v", ErrArtifactCorrupt, err)
	}
	wire.Params, wire.RawDigest = rest[n:], payload[:sha256.Size]
	return wire, nil
}

// decodeArtifact is the one loader body: it reconstructs an artifact from
// the complete byte image of a file. The returned graph aliases data,
// which may be a memory mapping or a heap buffer. verify selects what the
// heap path adds over the mapped one (see the format comment): the raw
// digest and deep validation of the graph arrays.
func decodeArtifact(data []byte, verify bool) (*Artifact, error) {
	version := uint32(artifactVersion)
	if len(data) >= 12 && binary.BigEndian.Uint32(data[8:12]) == gobArtifactVersion {
		version = gobArtifactVersion
	}
	payload, err := DecodeFrame(data, artifactMagic, version)
	if errors.Is(err, ErrArtifactVersion) {
		return nil, fmt.Errorf("%w (or version %d); retrain, or see docs/OPERATIONS.md \"Files from older builds\" to convert the file", err, gobArtifactVersion)
	}
	if err != nil {
		return nil, err
	}
	wire, err := decodePayload(payload, version)
	if err != nil {
		return nil, err
	}
	payloadEnd := FrameHeaderLen + len(payload)
	if verify {
		if sum := sha256.Sum256(data[payloadEnd:]); !bytes.Equal(sum[:], wire.RawDigest) {
			return nil, fmt.Errorf("%w: raw section digest mismatch", ErrArtifactCorrupt)
		}
	}
	gd, err := readRawSection(data, align8(payloadEnd))
	if err != nil {
		return nil, err
	}
	if verify {
		if err := validateRawGraph(gd); err != nil {
			return nil, err
		}
	}
	g := roadnet.AssembleGraph(gd)
	if verify {
		if err := g.Validate(); err != nil {
			return nil, fmt.Errorf("%w: raw graph: %v", ErrArtifactCorrupt, err)
		}
	}

	if err := checkModelShape(g.NumVertices(), wire.ModelConfig, len(wire.Params)); err != nil {
		return nil, err
	}
	model, err := LoadModel(g.NumVertices(), wire.ModelConfig, wire.Params)
	if err != nil {
		return nil, err
	}
	return &Artifact{Graph: g, Model: model, Candidates: wire.Candidates, Lineage: wire.Lineage, Shard: wire.Shard}, nil
}

// checkModelShape rejects a decoded model configuration whose weight
// tensors could not possibly be backed by the params payload, BEFORE any
// allocation happens. gob encodes a float64 in at least one byte, so a
// genuine artifact always satisfies paramsLen >= parameter count; a
// corrupt or adversarial config (e.g. EmbeddingDim 1<<40 in a 100-byte
// file) fails here instead of attempting a giant allocation in New.
func checkModelShape(numVertices int, cfg Config, paramsLen int) error {
	const maxDim = 1 << 24 // keeps the int64 products below overflow
	if cfg.EmbeddingDim <= 0 || cfg.EmbeddingDim > maxDim ||
		cfg.Hidden <= 0 || cfg.Hidden > maxDim {
		return fmt.Errorf("%w: implausible model dims %dx%d", ErrArtifactCorrupt, cfg.EmbeddingDim, cfg.Hidden)
	}
	v, d, h := int64(numVertices), int64(cfg.EmbeddingDim), int64(cfg.Hidden)
	// A lower bound on the parameter count: the embedding table plus, for
	// recurrent bodies, one input and one recurrent weight matrix (real
	// bodies have 3-4 gates, so this undercounts — which is the safe
	// direction for a rejection threshold).
	min := v * d
	switch cfg.Body {
	case GRUBody, BiGRUBody, LSTMBody, AttnGRUBody:
		min += d*h + h*h
	}
	if min > int64(paramsLen) {
		return fmt.Errorf("%w: config needs >=%d weights but payload carries %d bytes",
			ErrArtifactCorrupt, min, paramsLen)
	}
	return nil
}

// SaveArtifactFile publishes the artifact at path through WriteFileAtomic:
// durable, never partially visible, and safe to aim at a file a running
// server has mapped.
func SaveArtifactFile(path string, a *Artifact) error {
	return WriteFileAtomic(path, func(w io.Writer) error { return SaveArtifact(w, a) })
}

// SaveArtifactV3File is SaveArtifactFile; the name is kept only because
// benchmark/ calls it and may not be edited.
func SaveArtifactV3File(path string, a *Artifact) error { return SaveArtifactFile(path, a) }

// LoadArtifactFile reads the named artifact onto the heap, fully verified
// (see LoadArtifact). Hot swap and the canary load candidates this way.
func LoadArtifactFile(path string) (*Artifact, error) { return openArtifact(path, false) }

// LoadArtifactFileMapped opens the named artifact by memory-mapping it:
// the graph's CSR arrays are used in place, so load cost is independent
// of their size and N replicas on one machine share the page cache. It
// trusts the array bytes (see the format comment). The returned
// artifact's Close must be called when it is retired; until then the
// graph aliases the mapping.
// (benchmark/ calls this name and may not be edited.)
func LoadArtifactFileMapped(path string) (*Artifact, error) { return openArtifact(path, true) }

// openArtifact is the one path from a file name to an artifact.
func openArtifact(path string, mapped bool) (*Artifact, error) {
	if err := fault.Check(fault.SiteArtifactLoad); err != nil {
		return nil, fmt.Errorf("pathrank: load %s: %w", path, err)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("pathrank: %w", err)
	}
	defer f.Close()
	if !mapped {
		return LoadArtifact(f)
	}
	data, unmap, err := mapFile(f)
	if err != nil {
		return nil, fmt.Errorf("pathrank: map %s: %w", path, err)
	}
	a, err := decodeArtifact(data, false)
	if err != nil {
		unmap()
		return nil, err
	}
	a.closeFn = unmap
	return a, nil
}

// Close releases the memory mapping backing a mapped artifact. It is a
// no-op (and returns nil) for artifacts loaded any other way. After
// Close, the artifact's graph must not be used.
func (a *Artifact) Close() error {
	if a.closeFn == nil {
		return nil
	}
	fn := a.closeFn
	a.closeFn = nil
	return fn()
}

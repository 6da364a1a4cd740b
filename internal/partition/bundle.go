package partition

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"pathrank/internal/dataset"
	"pathrank/internal/pathrank"
	"pathrank/internal/roadnet"
	"pathrank/internal/spath"
)

// ShardMap is the router's half of a shard bundle: everything it needs to
// route, stitch, and rank WITHOUT holding any shard's graph. The model
// travels with the map (its vocabulary is the full vertex table, so the
// router can score candidate paths expressed in global vertex IDs), as do
// the cut edges (owned by no shard) and the boundary distance tables that
// make cross-shard stitching exact.
type ShardMap struct {
	Parts       int
	NumVertices int
	NumEdges    int
	// Owner maps every global vertex to its shard.
	Owner []int32
	// Boundary is each shard's boundary vertex list, ascending global IDs
	// — the exact order the shard's /shard/boundary response is aligned to.
	Boundary [][]roadnet.VertexID
	// CutEdges are the full records of every cross-shard edge (global IDs,
	// explicit lengths and times), ascending by ID.
	CutEdges []roadnet.Edge
	// DLen and DTime are |B|×|B| row-major full-graph shortest-path cost
	// tables over the global boundary list (GlobalBoundary's order), under
	// the length and time metrics respectively; +Inf marks unreachable.
	DLen  []float64
	DTime []float64
	// TotalLen and TotalTime sum every edge's weight under each metric.
	// They bound the cost of any loopless path, so the router can certify
	// a corridor enumeration as complete once its bound exceeds them.
	TotalLen  float64
	TotalTime float64
	// Candidates is the bundle's candidate-generation configuration (the
	// same one every shard artifact carries).
	Candidates dataset.Config
	// ModelConfig and ModelParams reconstruct the ranking model
	// (pathrank.New + Model.Load); Fingerprint is its hex SHA-256, equal to
	// every shard's serving fingerprint.
	ModelConfig pathrank.Config
	ModelParams []byte
	Fingerprint string
}

// GlobalBoundary returns the separator in table order: every shard's
// boundary list merged ascending. Deterministic, so the router and the
// bundle builder always agree on table indices.
func (m *ShardMap) GlobalBoundary() []roadnet.VertexID {
	var all []roadnet.VertexID
	for _, b := range m.Boundary {
		all = append(all, b...)
	}
	// Per-shard lists are sorted and disjoint; a k-way merge would do, but
	// |B| is small relative to V — reuse the simple sort.
	for i := 1; i < len(all); i++ {
		for j := i; j > 0 && all[j] < all[j-1]; j-- {
			all[j], all[j-1] = all[j-1], all[j]
		}
	}
	return all
}

// Model reconstructs the ranking model carried by the map.
func (m *ShardMap) Model() (*pathrank.Model, error) {
	model, err := pathrank.LoadModel(m.NumVertices, m.ModelConfig, m.ModelParams)
	if err != nil {
		return nil, fmt.Errorf("partition: shard map: %w", err)
	}
	return model, nil
}

// Shard-map file format: pathrank's frame header (magic, version, SHA-256
// of the payload, payload length) with its own magic, then gob(ShardMap).
var shardMapMagic = [8]byte{'P', 'R', 'S', 'H', 'R', 'D', 'M', 'P'}

const shardMapVersion = 1

// gob numbers types process-wide in order of first encode and writes those
// numbers into every stream, so a shard map's bytes would depend on what
// else the process had gob-encoded before its first save. Numbering the
// map's types here, right after internal/pathrank's init has numbered the
// artifact's, gives them the numbers a process that encoded nothing else
// first gave them, so equal maps are equal files in every binary.
func init() {
	_ = gob.NewEncoder(io.Discard).Encode(ShardMap{})
}

// SaveShardMap writes the map as a checksummed bundle.
func SaveShardMap(w io.Writer, m *ShardMap) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(m); err != nil {
		return fmt.Errorf("partition: encode shard map: %w", err)
	}
	header := pathrank.EncodeFrame(shardMapMagic, shardMapVersion, payload.Bytes())
	if _, err := w.Write(header[:]); err != nil {
		return fmt.Errorf("partition: write shard map header: %w", err)
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return fmt.Errorf("partition: write shard map payload: %w", err)
	}
	return nil
}

// LoadShardMap reads a map written by SaveShardMap, verifying magic,
// version, checksum, and internal consistency.
func LoadShardMap(r io.Reader) (*ShardMap, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("partition: read shard map: %w", err)
	}
	payload, err := pathrank.DecodeFrame(data, shardMapMagic, shardMapVersion)
	if err != nil {
		return nil, fmt.Errorf("partition: shard map: %w", err)
	}
	var m ShardMap
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&m); err != nil {
		return nil, fmt.Errorf("partition: decode shard map: %w", err)
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

func (m *ShardMap) validate() error {
	if m.Parts < 2 || len(m.Boundary) != m.Parts {
		return fmt.Errorf("partition: shard map has %d parts, %d boundary lists", m.Parts, len(m.Boundary))
	}
	if len(m.Owner) != m.NumVertices {
		return fmt.Errorf("partition: shard map owner covers %d of %d vertices", len(m.Owner), m.NumVertices)
	}
	for v, s := range m.Owner {
		if s < 0 || int(s) >= m.Parts {
			return fmt.Errorf("partition: vertex %d owned by shard %d of %d", v, s, m.Parts)
		}
	}
	nb := 0
	for s, list := range m.Boundary {
		for i, b := range list {
			if b < 0 || int(b) >= m.NumVertices {
				return fmt.Errorf("partition: boundary vertex %d out of range", b)
			}
			if m.Owner[b] != int32(s) {
				return fmt.Errorf("partition: boundary vertex %d listed under shard %d, owned by %d", b, s, m.Owner[b])
			}
			if i > 0 && list[i-1] >= b {
				return fmt.Errorf("partition: shard %d boundary list not ascending", s)
			}
		}
		nb += len(list)
	}
	if len(m.DLen) != nb*nb || len(m.DTime) != nb*nb {
		return fmt.Errorf("partition: boundary tables sized %d/%d for %d boundary vertices",
			len(m.DLen), len(m.DTime), nb)
	}
	for i, e := range m.CutEdges {
		// The router merges cut edges with the shards' ascending corridor
		// edges, so they too must ascend by ID.
		if e.ID < 0 || int(e.ID) >= m.NumEdges || (i > 0 && m.CutEdges[i-1].ID >= e.ID) {
			return fmt.Errorf("partition: cut edge %d out of range or out of ascending order", e.ID)
		}
		if e.From < 0 || int(e.From) >= m.NumVertices || e.To < 0 || int(e.To) >= m.NumVertices {
			return fmt.Errorf("partition: cut edge %d endpoints out of range", e.ID)
		}
		if m.Owner[e.From] == m.Owner[e.To] {
			return fmt.Errorf("partition: cut edge %d is not cross-shard", e.ID)
		}
	}
	return nil
}

// distanceTable fills the |B|×|B| row-major table of exact costs under w:
// row i is one Dijkstra from B[i] to every boundary vertex, over w's
// weight table, through the entry point a shard's boundary query uses.
// Rows are independent, so they run on up to GOMAXPROCS workers, each on
// its own pooled workspace; every row is the same search whichever worker
// runs it, so the table does not depend on the worker count.
func distanceTable(g *roadnet.Graph, w spath.Weight, B []roadnet.VertexID) []float64 {
	nb := len(B)
	flat := make([]float64, nb*nb)
	wts := spath.WeightTable(g, w)
	var next atomic.Int64
	var wg sync.WaitGroup
	workers := min(runtime.GOMAXPROCS(0), nb)
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			ws := spath.GetWorkspace(g)
			defer ws.Release()
			for i := int(next.Add(1)) - 1; i < nb; i = int(next.Add(1)) - 1 {
				ws.BoundaryDistances(g, B[i], false, B, wts, flat[i*nb:(i+1)*nb])
			}
		}()
	}
	wg.Wait()
	return flat
}

// Bundle file names within a bundle directory.
const (
	// ManifestName is the bundle's JSON descriptor.
	ManifestName = "bundle.json"
	// ShardMapName is the router's shard map.
	ShardMapName = "shardmap.bin"
)

// ShardArtifactName returns the file name of shard i's artifact.
func ShardArtifactName(i int) string { return fmt.Sprintf("shard-%03d.prar", i) }

// ShardManifest describes one shard in a bundle manifest.
type ShardManifest struct {
	Index         int    `json:"index"`
	Artifact      string `json:"artifact"`
	OwnedVertices int    `json:"owned_vertices"`
	Edges         int    `json:"edges"`
	Boundary      int    `json:"boundary_vertices"`
}

// Manifest is the bundle descriptor written as bundle.json.
type Manifest struct {
	Parts            int             `json:"parts"`
	Vertices         int             `json:"vertices"`
	Edges            int             `json:"edges"`
	CutEdges         int             `json:"cut_edges"`
	BoundaryVertices int             `json:"boundary_vertices"`
	Imbalance        float64         `json:"imbalance"`
	Fingerprint      string          `json:"fingerprint"`
	ShardMap         string          `json:"shard_map"`
	Shards           []ShardManifest `json:"shards"`
}

// BuildBundle partitions art's road network into parts shards and writes a
// complete serving bundle into dir: one artifact per shard, the router's
// shard map, and a JSON manifest, each published atomically (safe to
// rebuild into a directory live workers have mapped). Each shard artifact
// carries the full model, the bundle's candidate configuration, its
// induced subgraph and its shard identity, and no contraction hierarchy:
// a shard worker generates candidates on its ranker's weight tables and
// answers boundary queries with plain searches. The shard map carries the
// model again plus the boundary tables computed on the FULL graph. logf,
// when non-nil, receives progress lines.
func BuildBundle(art *pathrank.Artifact, dir string, parts int, logf func(format string, args ...any)) (*Manifest, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	g := art.Graph
	res, err := Split(g, parts)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	fp, err := art.Model.FingerprintHex()
	if err != nil {
		return nil, fmt.Errorf("partition: fingerprint model: %w", err)
	}
	man := &Manifest{
		Parts:            parts,
		Vertices:         g.NumVertices(),
		Edges:            g.NumEdges(),
		CutEdges:         len(res.CutEdges),
		BoundaryVertices: len(res.BoundaryVertices()),
		Imbalance:        res.Imbalance(),
		Fingerprint:      fp,
		ShardMap:         ShardMapName,
	}
	logf("partitioned %d vertices into %d shards: %d cut edges, %d boundary vertices, imbalance %.3f",
		man.Vertices, parts, man.CutEdges, man.BoundaryVertices, man.Imbalance)

	owned := make([]int, parts)
	for _, s := range res.Owner {
		owned[s]++
	}
	for i := 0; i < parts; i++ {
		sg, toGlobal := ExtractShard(g, res.Owner, int32(i))
		sa := &pathrank.Artifact{
			Graph:      sg,
			Model:      art.Model,
			Candidates: art.Candidates,
			Lineage:    art.Lineage,
			Shard: &pathrank.ShardInfo{
				Index:      i,
				Parts:      parts,
				Boundary:   res.Boundary[i],
				EdgeGlobal: toGlobal,
			},
		}
		name := ShardArtifactName(i)
		if err := pathrank.SaveArtifactFile(filepath.Join(dir, name), sa); err != nil {
			return nil, err
		}
		man.Shards = append(man.Shards, ShardManifest{
			Index:         i,
			Artifact:      name,
			OwnedVertices: owned[i],
			Edges:         sg.NumEdges(),
			Boundary:      len(res.Boundary[i]),
		})
		logf("shard %d: %d owned vertices, %d edges, %d boundary vertices -> %s",
			i, owned[i], sg.NumEdges(), len(res.Boundary[i]), name)
	}

	B := res.BoundaryVertices()
	logf("computing %dx%d boundary tables", len(B), len(B))
	var params bytes.Buffer
	if err := art.Model.Save(&params); err != nil {
		return nil, fmt.Errorf("partition: serialize model: %w", err)
	}
	var totalLen, totalTime float64
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(roadnet.EdgeID(i))
		totalLen += e.Length
		totalTime += e.Time
	}
	m := &ShardMap{
		Parts:       parts,
		NumVertices: g.NumVertices(),
		NumEdges:    g.NumEdges(),
		Owner:       res.Owner,
		Boundary:    res.Boundary,
		CutEdges:    res.CutEdges,
		DLen:        distanceTable(g, spath.ByLength, B),
		DTime:       distanceTable(g, spath.ByTime, B),
		TotalLen:    totalLen,
		TotalTime:   totalTime,
		Candidates:  art.Candidates,
		ModelConfig: art.Model.Config(),
		ModelParams: params.Bytes(),
		Fingerprint: fp,
	}
	err = pathrank.WriteFileAtomic(filepath.Join(dir, ShardMapName), func(w io.Writer) error { return SaveShardMap(w, m) })
	if err != nil {
		return nil, err
	}

	mb, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	err = pathrank.WriteFileAtomic(filepath.Join(dir, ManifestName), func(w io.Writer) error {
		_, err := w.Write(append(mb, '\n'))
		return err
	})
	if err != nil {
		return nil, err
	}
	return man, nil
}

// LoadShardMapFile reads the shard map of the bundle in dir.
func LoadShardMapFile(dir string) (*ShardMap, error) {
	f, err := os.Open(filepath.Join(dir, ShardMapName))
	if err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	defer f.Close()
	return LoadShardMap(f)
}

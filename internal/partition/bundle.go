package partition

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"pathrank/internal/dataset"
	"pathrank/internal/par"
	"pathrank/internal/pathrank"
	"pathrank/internal/roadnet"
	"pathrank/internal/spath"
)

// ShardMap is the router's half of a shard bundle: everything it needs to
// route, stitch, and rank WITHOUT holding any shard's graph. The model
// travels with the map (its vocabulary is the full vertex table, so the
// router can score candidate paths expressed in global vertex IDs), as do
// the cut edges (owned by no shard), the boundary-to-boundary distance
// tables that make cross-shard stitching exact, and the endpoint tables
// (EndpointDistances) that give the router each endpoint's distances to
// its shard's boundary without asking the shard.
type ShardMap struct {
	Parts       int
	NumVertices int
	NumEdges    int
	// Owner maps every global vertex to its shard.
	Owner []int32
	// Boundary is each shard's boundary vertex list, ascending global IDs
	// — the column order of the shard's endpoint tables.
	Boundary [][]roadnet.VertexID
	// CutEdges are the full records of every cross-shard edge (global IDs,
	// explicit lengths and times), ascending by ID.
	CutEdges []roadnet.Edge
	// DLen and DTime are |B|×|B| row-major full-graph shortest-path cost
	// tables over the global boundary list (GlobalBoundary's order), under
	// the length and time metrics respectively; +Inf marks unreachable.
	DLen  []float64 `json:"-"`
	DTime []float64 `json:"-"`
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
	ModelParams []byte `json:"-"`
	Fingerprint string

	// endpoint holds, per shard s, four owned(s)×|Boundary[s]| row-major
	// tables back to back, in endpointIndex order: row r is the r-th
	// vertex s owns in ascending ID order, column k is Boundary[s][k], and
	// entries are distances within s's induced subgraph, +Inf where none
	// exists. row[v] is v's row in its owner's tables, derived from Owner
	// (indexRows), never stored.
	endpoint [][]float64
	row      []int32
}

// endpointIndex numbers a shard's four endpoint tables: to-boundary
// (d_s(v→u)) then from-boundary (d_s(u→v)), under length then time.
func endpointIndex(w pathrank.WeightKind, rev bool) int {
	t := 0
	if w == pathrank.WeightTime {
		t = 2
	}
	if rev {
		t++
	}
	return t
}

// EndpointDistances returns v's row of its owning shard s's endpoint
// tables under w (length unless w is WeightTime): d_s(v → u) for each u in
// Boundary[s], or with rev d_s(u → v), where d_s is the shortest-path cost
// within s's induced subgraph and +Inf marks no path. The row aliases the
// map's tables and must not be modified.
func (m *ShardMap) EndpointDistances(v roadnet.VertexID, w pathrank.WeightKind, rev bool) []float64 {
	s := m.Owner[v]
	nb := len(m.Boundary[s])
	base := endpointIndex(w, rev)*len(m.endpoint[s])/4 + int(m.row[v])*nb
	return m.endpoint[s][base : base+nb : base+nb]
}

// setEndpoint installs per-shard endpoint tables.
func (m *ShardMap) setEndpoint(tables [][]float64) {
	m.endpoint = tables
	m.indexRows()
}

// indexRows derives each vertex's row in its owner's endpoint tables
// from Owner and returns how many vertices each shard owns.
func (m *ShardMap) indexRows() []int {
	m.row = make([]int32, len(m.Owner))
	owned := make([]int, m.Parts)
	for v, s := range m.Owner {
		m.row[v] = int32(owned[s])
		owned[s]++
	}
	return owned
}

// GlobalBoundary returns the separator in table order: every shard's
// boundary list merged ascending. Deterministic, so the router and the
// bundle builder always agree on table indices.
func (m *ShardMap) GlobalBoundary() []roadnet.VertexID {
	all := slices.Concat(m.Boundary...)
	slices.Sort(all)
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

// Shard-map file format, version 3: pathrank's frame header (magic,
// version, SHA-256 of the payload, payload length) with its own magic,
// then a payload of
//
//	8 bytes   header length h (big-endian uint64)
//	8 bytes   params length p (big-endian uint64)
//	h bytes   JSON header: the map's exported fields but DLen, DTime and
//	          ModelParams, in declaration order
//	8t bytes  the tables' byte image, t little-endian float64s: DLen,
//	          DTime, then every shard's four endpoint tables in table
//	          order, each sized by the header's Owner and Boundary
//	p bytes   ModelParams, the payload's tail
//
// No byte depends on the writing process: encoding/json keeps no global
// state. The tables stay out of JSON, which cannot write their +Inf
// entries. Version 2 (a gob message, then the endpoint image) and version
// 1 are refused with a request to rebuild the bundle.
var shardMapMagic = [8]byte{'P', 'R', 'S', 'H', 'R', 'D', 'M', 'P'}

const shardMapVersion = 3

// SaveShardMap writes the map as a checksummed bundle.
func SaveShardMap(w io.Writer, m *ShardMap) error {
	head, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("partition: encode shard map: %w", err)
	}
	tables, n := append([][]float64{m.DLen, m.DTime}, m.endpoint...), 0
	for _, t := range tables {
		n += len(t)
	}
	payload := make([]byte, 16, 16+len(head)+8*n+len(m.ModelParams))
	binary.BigEndian.PutUint64(payload, uint64(len(head)))
	binary.BigEndian.PutUint64(payload[8:], uint64(len(m.ModelParams)))
	payload = append(payload, head...)
	for _, t := range tables {
		for _, x := range t {
			payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(x))
		}
	}
	payload = append(payload, m.ModelParams...)
	header := pathrank.EncodeFrame(shardMapMagic, shardMapVersion, payload)
	if _, err := w.Write(header[:]); err != nil {
		return fmt.Errorf("partition: write shard map header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("partition: write shard map payload: %w", err)
	}
	return nil
}

// LoadShardMap decodes the bytes of a map file written by SaveShardMap,
// verifying magic, version, checksum, and internal consistency, all
// tables included: the router reads them without further checks.
func LoadShardMap(data []byte) (*ShardMap, error) {
	payload, err := pathrank.DecodeFrame(data, shardMapMagic, shardMapVersion)
	if errors.Is(err, pathrank.ErrArtifactVersion) {
		return nil, fmt.Errorf("partition: shard map: %w; rebuild the bundle with this build (pathrank-train -partition)", err)
	}
	if err != nil {
		return nil, fmt.Errorf("partition: shard map: %w", err)
	}
	if len(payload) < 16 {
		return nil, fmt.Errorf("partition: shard map payload of %d bytes is shorter than its prefix", len(payload))
	}
	h, p := binary.BigEndian.Uint64(payload), binary.BigEndian.Uint64(payload[8:])
	rest := payload[16:]
	if h > uint64(len(rest)) || p > uint64(len(rest))-h {
		return nil, fmt.Errorf("partition: shard map header (%d bytes) and params (%d bytes) exceed the %d-byte payload", h, p, len(rest))
	}
	var m ShardMap
	if err := json.Unmarshal(rest[:h], &m); err != nil {
		return nil, fmt.Errorf("partition: decode shard map: %w", err)
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	if err := m.decodeTables(rest[h : uint64(len(rest))-p]); err != nil {
		return nil, err
	}
	// A copy, so that the map does not keep the whole file alive.
	m.ModelParams = bytes.Clone(rest[uint64(len(rest))-p:])
	return &m, nil
}

// decodeTables checks the tables' byte image against the shape Owner and
// Boundary give them, and that every entry is a cost (not NaN, no sign
// bit: a sweep from +0 over non-negative weights never yields −0; +Inf is
// an unreachable pair), then installs them.
func (m *ShardMap) decodeTables(image []byte) error {
	owned := m.indexRows()
	nb := len(slices.Concat(m.Boundary...))
	sizes, want := []int{nb * nb, nb * nb}, 2*nb*nb
	for s, list := range m.Boundary {
		sizes = append(sizes, 4*owned[s]*len(list))
		want += sizes[2+s]
	}
	if len(image) != 8*want {
		return fmt.Errorf("partition: boundary and endpoint tables hold %d bytes, the shards' owned vertices and boundaries need %d (%d boundary vertices; 4 tables of 8-byte rows × columns per shard)",
			len(image), 8*want, nb)
	}
	flat := make([]float64, want)
	tables := make([][]float64, len(sizes))
	for t, n := range sizes {
		tables[t], flat = flat[:n:n], flat[n:]
		for i := range tables[t] {
			x := math.Float64frombits(binary.LittleEndian.Uint64(image))
			image = image[8:]
			if math.IsNaN(x) || math.Signbit(x) {
				return fmt.Errorf("partition: %s entry %d is %g, not a cost", [...]string{"DLen", "DTime", "endpoint table"}[min(t, 2)], i, x)
			}
			tables[t][i] = x
		}
	}
	m.DLen, m.DTime, m.endpoint = tables[0], tables[1], tables[2:]
	return nil
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
// weight table, through the same entry point endpointTables uses.
func distanceTable(g *roadnet.Graph, w spath.Weight, B []roadnet.VertexID) []float64 {
	nb := len(B)
	flat := make([]float64, nb*nb)
	wts := spath.WeightTable(g, w)
	par.For(nb, func(i int) {
		ws := spath.GetWorkspace(g)
		ws.BoundaryDistances(g, B[i], false, B, wts, flat[i*nb:(i+1)*nb])
		ws.Release()
	})
	return flat
}

// endpointTables computes one shard's four endpoint tables (the layout of
// ShardMap.endpoint) on its induced subgraph sg: for each boundary vertex
// u and each table, one sweep rooted at u over the table's weights, in
// reverse for a to-boundary table, read at every owned vertex. owned
// lists the shard's vertices ascending, B its boundary.
func endpointTables(sg *roadnet.Graph, owned, B []roadnet.VertexID) []float64 {
	no, nb := len(owned), len(B)
	wts := [2][]float64{spath.WeightTable(sg, spath.ByLength), spath.WeightTable(sg, spath.ByTime)}
	// Sweep j fills column j%nb of table j/nb, contiguous here and
	// transposed below into the tables' row-major order.
	cols := make([]float64, 4*nb*no)
	par.For(4*nb, func(j int) {
		t, k := j/nb, j%nb
		ws := spath.GetWorkspace(sg)
		ws.BoundaryDistances(sg, B[k], t%2 == 0, owned, wts[t/2], cols[j*no:(j+1)*no])
		ws.Release()
	})
	out := make([]float64, len(cols))
	for j := range 4 * nb {
		t, k := j/nb, j%nb
		for r, x := range cols[j*no : (j+1)*no] {
			out[(t*no+r)*nb+k] = x
		}
	}
	return out
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
// induced subgraph and its shard identity: a shard worker generates
// candidates on its ranker's weight tables and extracts corridors with
// plain searches. The shard map carries the model
// again, the boundary-to-boundary tables computed on the FULL graph, and
// each shard's endpoint tables computed on its induced subgraph. logf,
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
	// The fingerprint is the SHA-256 of the params stream (the shard map
	// carries that stream too), so one encode serves both.
	var params bytes.Buffer
	if err := art.Model.Save(&params); err != nil {
		return nil, fmt.Errorf("partition: serialize model: %w", err)
	}
	sum := sha256.Sum256(params.Bytes())
	fp := hex.EncodeToString(sum[:])
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

	owned := make([][]roadnet.VertexID, parts)
	for v, s := range res.Owner {
		owned[s] = append(owned[s], roadnet.VertexID(v))
	}
	sgs := make([]*roadnet.Graph, parts)
	toGlobal := make([][]roadnet.EdgeID, parts)
	for i := range parts {
		sgs[i], toGlobal[i] = ExtractShard(g, res.Owner, int32(i))
	}

	// The distance tables are pure computation on up to GOMAXPROCS
	// workers. They run while the shard artifacts are encoded and written
	// on this goroutine, which keeps one core busy at most.
	B := res.BoundaryVertices()
	logf("computing %dx%d boundary tables and %d shards' endpoint tables", len(B), len(B), parts)
	endpoint := make([][]float64, parts)
	var dLen, dTime []float64
	var tables sync.WaitGroup
	tables.Add(1)
	go func() {
		defer tables.Done()
		for i := range parts {
			endpoint[i] = endpointTables(sgs[i], owned[i], res.Boundary[i])
		}
		dLen = distanceTable(g, spath.ByLength, B)
		dTime = distanceTable(g, spath.ByTime, B)
	}()
	defer tables.Wait() // an early return leaves no sweep running

	for i, sg := range sgs {
		sa := &pathrank.Artifact{
			Graph:      sg,
			Model:      art.Model,
			Candidates: art.Candidates,
			Lineage:    art.Lineage,
			Shard: &pathrank.ShardInfo{
				Index:      i,
				Parts:      parts,
				Boundary:   res.Boundary[i],
				EdgeGlobal: toGlobal[i],
			},
		}
		name := ShardArtifactName(i)
		if err := pathrank.SaveArtifactFile(filepath.Join(dir, name), sa); err != nil {
			return nil, err
		}
		man.Shards = append(man.Shards, ShardManifest{
			Index:         i,
			Artifact:      name,
			OwnedVertices: len(owned[i]),
			Edges:         sg.NumEdges(),
			Boundary:      len(res.Boundary[i]),
		})
		logf("shard %d: %d owned vertices, %d edges, %d boundary vertices -> %s",
			i, len(owned[i]), sg.NumEdges(), len(res.Boundary[i]), name)
	}

	var totalLen, totalTime float64
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(roadnet.EdgeID(i))
		totalLen += e.Length
		totalTime += e.Time
	}
	tables.Wait()
	m := &ShardMap{
		Parts:       parts,
		NumVertices: g.NumVertices(),
		NumEdges:    g.NumEdges(),
		Owner:       res.Owner,
		Boundary:    res.Boundary,
		CutEdges:    res.CutEdges,
		DLen:        dLen,
		DTime:       dTime,
		TotalLen:    totalLen,
		TotalTime:   totalTime,
		Candidates:  art.Candidates,
		ModelConfig: art.Model.Config(),
		ModelParams: params.Bytes(),
		Fingerprint: fp,
	}
	m.setEndpoint(endpoint)
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
	data, err := os.ReadFile(filepath.Join(dir, ShardMapName))
	if err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	return LoadShardMap(data)
}

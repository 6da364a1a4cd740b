package pathrank

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"pathrank/internal/fault"
	"pathrank/internal/geo"
	"pathrank/internal/roadnet"
	"pathrank/internal/spath"
)

// TestArtifactV3RoundTrip saves an artifact and reloads it both ways,
// demanding a bit-identical graph and model.
func TestArtifactV3RoundTrip(t *testing.T) {
	art := trainedArtifact(t)
	path := filepath.Join(t.TempDir(), "v3.prar")
	if err := SaveArtifactV3File(path, art); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		load func(string) (*Artifact, error)
	}{
		{"heap", LoadArtifactFile},
		{"mapped", LoadArtifactFileMapped},
	} {
		got, err := mode.load(path)
		if err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		if got.Graph.NumVertices() != art.Graph.NumVertices() || got.Graph.NumEdges() != art.Graph.NumEdges() {
			t.Fatalf("%s: graph shape changed", mode.name)
		}
		for i := 0; i < art.Graph.NumEdges(); i++ {
			e, w := art.Graph.Edge(roadnet.EdgeID(i)), got.Graph.Edge(roadnet.EdgeID(i))
			if e != w {
				t.Fatalf("%s: edge %d differs: %+v vs %+v", mode.name, i, e, w)
			}
		}
		wantFP, err := art.Model.FingerprintHex()
		if err != nil {
			t.Fatal(err)
		}
		gotFP, err := got.Model.FingerprintHex()
		if err != nil {
			t.Fatal(err)
		}
		if wantFP != gotFP {
			t.Fatalf("%s: model fingerprint changed", mode.name)
		}
		if err := got.Close(); err != nil {
			t.Fatalf("%s: close: %v", mode.name, err)
		}
	}
}

// TestArtifactV3MappedColdStartSkipsArrays is the mmap acceptance test: a
// mapped open must not copy the CSR arrays — its heap allocations
// must stay far below the raw section it maps, while a heap load pays
// for every array. The graph is sized so the raw
// arrays dominate the file and the model gob is noise.
func TestArtifactV3MappedColdStartSkipsArrays(t *testing.T) {
	g, err := roadnet.Generate(roadnet.GenConfig{
		Rows: 28, Cols: 28, SpacingM: 200, JitterFrac: 0.2,
		RemoveFrac: 0.05, ArterialEvery: 5, Motorway: true, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(g.NumVertices(), Config{EmbeddingDim: 2, Hidden: 2, Variant: PRA1, Body: MeanPoolBody, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	art := &Artifact{Graph: g, Model: m}
	path := filepath.Join(t.TempDir(), "v3.prar")
	if err := SaveArtifactV3File(path, art); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	allocBytes := func(load func(string) (*Artifact, error)) uint64 {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		a, err := load(path)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		defer a.Close()
		return after.TotalAlloc - before.TotalAlloc
	}

	full := allocBytes(LoadArtifactFile)
	mapped := allocBytes(LoadArtifactFileMapped)
	t.Logf("file %d bytes, heap load allocated %d, mapped load allocated %d", fi.Size(), full, mapped)
	// A heap load reads the whole file; a mapped load must allocate no
	// more than roughly the model/metadata gob — well under half the file,
	// and far under the heap load.
	if mapped >= uint64(fi.Size())/2 {
		t.Fatalf("mapped load allocated %d bytes for a %d-byte file: raw arrays are being copied", mapped, fi.Size())
	}
	if mapped*2 >= full {
		t.Fatalf("mapped load allocated %d bytes vs %d on the heap: mapping saves nothing", mapped, full)
	}
}

// TestArtifactV3ShardInfoRoundTrip checks the shard identity block
// survives both load paths.
func TestArtifactV3ShardInfoRoundTrip(t *testing.T) {
	art := trainedArtifact(t)
	art.Shard = &ShardInfo{
		Index: 1, Parts: 3,
		Boundary:   []roadnet.VertexID{0, 3, roadnet.VertexID(art.Graph.NumVertices() - 1)},
		EdgeGlobal: make([]roadnet.EdgeID, art.Graph.NumEdges()),
	}
	for i := range art.Shard.EdgeGlobal {
		art.Shard.EdgeGlobal[i] = roadnet.EdgeID(i)
	}
	path := filepath.Join(t.TempDir(), "shard.prar")
	if err := SaveArtifactV3File(path, art); err != nil {
		t.Fatal(err)
	}
	for _, load := range []func(string) (*Artifact, error){LoadArtifactFile, LoadArtifactFileMapped} {
		got, err := load(path)
		if err != nil {
			t.Fatal(err)
		}
		if got.Shard == nil || got.Shard.Index != 1 || got.Shard.Parts != 3 {
			t.Fatalf("shard identity lost: %+v", got.Shard)
		}
		if len(got.Shard.Boundary) != 3 || len(got.Shard.EdgeGlobal) != art.Graph.NumEdges() {
			t.Fatalf("shard tables lost: %d boundary, %d edges", len(got.Shard.Boundary), len(got.Shard.EdgeGlobal))
		}
		got.Close()
	}
}

// smallArtifact is a cheap untrained artifact on its own grid, distinct
// from (and smaller than) trainedArtifact's.
func smallArtifact(t testing.TB, seed int64) *Artifact {
	t.Helper()
	g, err := roadnet.Generate(roadnet.GenConfig{Rows: 4, Cols: 4, SpacingM: 200, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(g.NumVertices(), Config{EmbeddingDim: 2, Hidden: 2, Variant: PRA1, Body: MeanPoolBody, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return &Artifact{Graph: g, Model: m}
}

// TestSaveOverMappedArtifact: publishing a different artifact at a path a
// server has mapped must not disturb the mapping. A writer that truncates
// the inode in place (os.Create) turns the mapper's next page touch into
// SIGBUS or hands it the new file's bytes; every public writer must
// replace the inode instead.
func TestSaveOverMappedArtifact(t *testing.T) {
	first := trainedArtifact(t)
	path := filepath.Join(t.TempDir(), "live.prart")
	if err := SaveArtifactFile(path, first); err != nil {
		t.Fatal(err)
	}
	mapped, err := LoadArtifactFileMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	src, dst := roadnet.VertexID(0), roadnet.VertexID(first.Graph.NumVertices()-1)
	want, err := spath.Dijkstra(first.Graph, src, dst, spath.ByLength)
	if err != nil {
		t.Fatal(err)
	}

	for name, save := range map[string]func(string, *Artifact) error{
		"SaveArtifactFile": SaveArtifactFile, "SaveArtifactV3File": SaveArtifactV3File,
	} {
		second := smallArtifact(t, 3)
		if err := save(path, second); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := spath.Dijkstra(mapped.Graph, src, dst, spath.ByLength)
		if err != nil || got.Cost != want.Cost || !got.Equal(want) {
			t.Fatalf("%s: a query on the mapped graph changed after the path was overwritten: %v", name, err)
		}
		for i := 0; i < first.Graph.NumEdges(); i++ {
			if e, w := mapped.Graph.Edge(roadnet.EdgeID(i)), first.Graph.Edge(roadnet.EdgeID(i)); e != w {
				t.Fatalf("%s: mapped edge %d reads %+v, want %+v", name, i, e, w)
			}
		}
		for v := 0; v < first.Graph.NumVertices(); v++ {
			if p, w := mapped.Graph.Vertex(roadnet.VertexID(v)), first.Graph.Vertex(roadnet.VertexID(v)); p != w {
				t.Fatalf("%s: mapped vertex %d reads %+v, want %+v", name, v, p, w)
			}
		}
		reloaded, err := LoadArtifactFile(path)
		if err != nil {
			t.Fatalf("%s: path does not hold the new artifact: %v", name, err)
		}
		if reloaded.Graph.NumVertices() != second.Graph.NumVertices() {
			t.Fatalf("%s: path holds %d vertices, want the new artifact's %d",
				name, reloaded.Graph.NumVertices(), second.Graph.NumVertices())
		}
	}
}

// TestArtifactFaultSites: a chaos plan arming artifact/load must fail both
// loaders, and one arming artifact/save every file writer, with the
// injected error — before the file is touched.
func TestArtifactFaultSites(t *testing.T) {
	art := smallArtifact(t, 5)
	path := filepath.Join(t.TempDir(), "a.prart")
	if err := SaveArtifactFile(path, art); err != nil {
		t.Fatal(err)
	}
	restore := fault.Enable(fault.NewPlan(1,
		fault.Rule{Site: fault.SiteArtifactLoad, Kind: fault.KindError},
		fault.Rule{Site: fault.SiteArtifactSave, Kind: fault.KindError}))
	for name, load := range map[string]func(string) (*Artifact, error){
		"LoadArtifactFile": LoadArtifactFile, "LoadArtifactFileMapped": LoadArtifactFileMapped,
	} {
		if a, err := load(path); !errors.Is(err, fault.ErrInjected) {
			a.Close()
			t.Errorf("%s under an armed artifact/load fault: err = %v, want the injected error", name, err)
		}
	}
	for name, save := range map[string]func(string, *Artifact) error{
		"SaveArtifactFile": SaveArtifactFile, "SaveArtifactV3File": SaveArtifactV3File,
	} {
		if err := save(path, art); !errors.Is(err, fault.ErrInjected) {
			t.Errorf("%s under an armed artifact/save fault: err = %v, want the injected error", name, err)
		}
	}
	restore()
	a, err := LoadArtifactFileMapped(path)
	if err != nil {
		t.Fatalf("load after the plan was lifted: %v", err)
	}
	a.Close()
}

// TestRawLayoutPinned pins everything the raw section depends on without
// saying so in the file: the in-memory layout of the structs whose byte
// image is persisted, and the order and element type of the 8 graph
// directory entries. Editing roadnet.Vertex/Edge, reordering GraphData or
// the slot table, or retyping an array fails here instead of silently
// changing the format under an unchanged version.
func TestRawLayoutPinned(t *testing.T) {
	var v roadnet.Vertex
	var e roadnet.Edge
	for _, c := range []struct {
		what      string
		got, want uintptr
	}{
		{"sizeof(Vertex)", unsafe.Sizeof(v), 24},
		{"Vertex.ID", unsafe.Offsetof(v.ID), 0},
		{"Vertex.Point", unsafe.Offsetof(v.Point), 8},
		{"Vertex.Point.Lon", unsafe.Offsetof(v.Point.Lon), 0},
		{"Vertex.Point.Lat", unsafe.Offsetof(v.Point.Lat), 8},
		{"sizeof(Edge)", unsafe.Sizeof(e), 40},
		{"Edge.ID", unsafe.Offsetof(e.ID), 0},
		{"Edge.From", unsafe.Offsetof(e.From), 4},
		{"Edge.To", unsafe.Offsetof(e.To), 8},
		{"Edge.Length", unsafe.Offsetof(e.Length), 16},
		{"Edge.Time", unsafe.Offsetof(e.Time), 24},
		{"Edge.Category", unsafe.Offsetof(e.Category), 32},
		{"sizeof(Edge.Category)", unsafe.Sizeof(e.Category), 1},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, the raw section was written with %d", c.what, c.got, c.want)
		}
	}

	art := trainedArtifact(t)
	var buf bytes.Buffer
	if err := SaveArtifact(&buf, art); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	gd := reflect.ValueOf(art.Graph.RawData())
	layout := []struct {
		field    string
		elem     string
		elemSize int
		src      reflect.Value
	}{
		{"Vertices", "roadnet.Vertex", 24, gd},
		{"Edges", "roadnet.Edge", 40, gd},
		{"OutStart", "int32", 4, gd},
		{"OutEdges", "roadnet.EdgeID", 4, gd},
		{"OutTo", "roadnet.VertexID", 4, gd},
		{"InStart", "int32", 4, gd},
		{"InEdges", "roadnet.EdgeID", 4, gd},
		{"InFrom", "roadnet.VertexID", 4, gd},
	}
	dir := data[rawStartOf(t, data):]
	if n := binary.NativeEndian.Uint32(dir[12:16]); int(n) != len(layout) || n != rawGraphArrayCount {
		t.Fatalf("directory holds %d arrays, want the graph's 8", n)
	}
	for i, l := range layout {
		f := l.src.FieldByName(l.field)
		if !f.IsValid() || f.Type().Elem().String() != l.elem || int(f.Type().Elem().Size()) != l.elemSize {
			t.Errorf("entry %d: field %s is not []%s with %d-byte elements", i, l.field, l.elem, l.elemSize)
			continue
		}
		off := binary.NativeEndian.Uint64(dir[rawDirHeaderLen+i*16:])
		elems := binary.NativeEndian.Uint64(dir[rawDirHeaderLen+i*16+8:])
		if int(elems) != f.Len() || f.Len() == 0 {
			t.Errorf("entry %d (%s): %d elements on file, %d in memory", i, l.field, elems, f.Len())
			continue
		}
		mem := unsafe.Slice((*byte)(f.UnsafePointer()), f.Len()*l.elemSize)
		if !bytes.Equal(data[off:off+uint64(len(mem))], mem) {
			t.Errorf("entry %d is not the byte image of %s", i, l.field)
		}
	}
}

// digestSink keeps BenchmarkGraphDigest's result alive.
var digestSink [32]byte

// BenchmarkGraphDigest times GraphDigest on the 56x56 default world, which
// serve digests on every New and every hot swap.
func BenchmarkGraphDigest(b *testing.B) {
	cfg := roadnet.DefaultGenConfig()
	cfg.Rows, cfg.Cols, cfg.Seed = 56, 56, 1
	g, err := roadnet.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		digestSink = GraphDigest(g)
	}
}

// digestGraph is a fixed four-vertex graph with one-way and two-way edges.
func digestGraph() *roadnet.Graph {
	b := roadnet.NewBuilder(4, 6)
	for i := 0; i < 4; i++ {
		b.AddVertex(geo.Point{Lon: 10 + 0.01*float64(i%2), Lat: 57 + 0.01*float64(i/2)})
	}
	b.AddBidirectional(0, 1, roadnet.Residential)
	b.AddEdgeWithLength(1, 3, roadnet.Secondary, 1250)
	b.AddEdgeWithLength(3, 2, roadnet.Primary, 990.5)
	b.AddBidirectional(2, 0, roadnet.Motorway)
	return b.Build()
}

// pinnedGraphDigest is GraphDigest(digestGraph()).
const pinnedGraphDigest = "795c231878f414f30ad098b71636c3e62e46fb7bed7070b3961a092972f494c5"

// TestGraphDigestPinned pins the digest of a fixed graph, and checks that
// it reads values, not memory: the same arrays with garbage in every
// struct's padding digest the same, and one changed field changes it.
func TestGraphDigestPinned(t *testing.T) {
	g := digestGraph()
	sum := GraphDigest(g)
	if hex.EncodeToString(sum[:]) != pinnedGraphDigest {
		t.Fatalf("GraphDigest = %x, pinned %s", sum, pinnedGraphDigest)
	}

	gd := g.RawData()
	vs, es := slices.Clone(gd.Vertices), slices.Clone(gd.Edges)
	// Write garbage into the padding only: 4 bytes after Vertex.ID, 4
	// after Edge.To and 7 after Edge.Category.
	for i := range vs {
		copy(byteImage(vs[i : i+1])[4:8], []byte{0xa5, 0xa5, 0xa5, 0xa5})
	}
	for i := range es {
		img := byteImage(es[i : i+1])
		copy(img[12:16], []byte{0xa5, 0xa5, 0xa5, 0xa5})
		copy(img[33:40], []byte{0xa5, 0xa5, 0xa5, 0xa5, 0xa5, 0xa5, 0xa5})
	}
	if got := GraphDigest(roadnet.NewGraphFromData(vs, es)); got != sum {
		t.Fatalf("padding bytes changed the digest: %x vs %x", got, sum)
	}
	es[3].Category = roadnet.Secondary
	if got := GraphDigest(roadnet.NewGraphFromData(vs, es)); got == sum {
		t.Fatal("a changed edge category left the digest unchanged")
	}
}

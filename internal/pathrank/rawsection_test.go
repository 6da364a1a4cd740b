package pathrank

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"pathrank/internal/fault"
	"pathrank/internal/roadnet"
	"pathrank/internal/spath"
)

// v3Artifact is trainedArtifact plus the CH prep the raw section carries.
func v3Artifact(t testing.TB) *Artifact {
	t.Helper()
	art := trainedArtifact(t)
	art.Prep = spath.BuildPrep(art.Graph, spath.PrepConfig{})
	return art
}

// TestArtifactV3RoundTrip saves an artifact and reloads it both ways,
// demanding bit-identical graph, CH, and model behavior.
func TestArtifactV3RoundTrip(t *testing.T) {
	art := v3Artifact(t)
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
		if got.Prep == nil || got.Prep.CH == nil {
			t.Fatalf("%s: CH prep lost", mode.name)
		}
		// CH answers must match a fresh Dijkstra on the reloaded graph.
		ws := spath.GetWorkspace(got.Graph)
		n := got.Graph.NumVertices()
		targets := []roadnet.VertexID{roadnet.VertexID(n - 1), roadnet.VertexID(n / 2)}
		want := make([]float64, len(targets))
		ws.BoundedDistances(got.Graph, 0, targets, math.Inf(1), spath.ByLength, want)
		ws.Release()
		eng := got.Prep.Engine(got.Graph)
		rows := [][]float64{make([]float64, len(targets))}
		eng.ManyToMany([]roadnet.VertexID{0}, targets, math.Inf(1), rows)
		for j := range targets {
			if rows[0][j] != want[j] {
				t.Fatalf("%s: CH distance 0->%d = %g, dijkstra says %g", mode.name, targets[j], rows[0][j], want[j])
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
// mapped open must not copy the CSR and CH arrays — its heap allocations
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
	art := &Artifact{Graph: g, Model: m, Prep: spath.BuildPrep(g, spath.PrepConfig{})}
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
	art := v3Artifact(t)
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
	return &Artifact{Graph: g, Model: m, Prep: spath.BuildPrep(g, spath.PrepConfig{})}
}

// TestSaveOverMappedArtifact: publishing a different artifact at a path a
// server has mapped must not disturb the mapping. A writer that truncates
// the inode in place (os.Create) turns the mapper's next page touch into
// SIGBUS or hands it the new file's bytes; every public writer must
// replace the inode instead.
func TestSaveOverMappedArtifact(t *testing.T) {
	first := v3Artifact(t)
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
	want, err := first.Prep.CH.Query(src, dst)
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
		got, err := mapped.Prep.CH.Query(src, dst)
		if err != nil || got.Cost != want.Cost || !got.Equal(want) {
			t.Fatalf("%s: mapped CH query changed after the path was overwritten: %v", name, err)
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

// TestRawLayoutPinned pins everything format 3 depends on without saying
// so in the file: the in-memory layout of the structs whose byte image is
// persisted, and the order and element type of the 8 graph + 12 CH
// directory entries. Editing roadnet.Vertex/Edge, reordering
// GraphData/CHData or the slot tables, or retyping an array fails here
// instead of silently changing the format under an unchanged version.
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
			t.Errorf("%s = %d, format 3 was written with %d", c.what, c.got, c.want)
		}
	}

	art := v3Artifact(t)
	var buf bytes.Buffer
	if err := SaveArtifact(&buf, art); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	gd, chd := reflect.ValueOf(art.Graph.RawData()), reflect.ValueOf(art.Prep.CH.RawData())
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
		{"Order", "int32", 4, chd},
		{"ArcFrom", "int32", 4, chd},
		{"ArcTo", "int32", 4, chd},
		{"ArcWeight", "float64", 8, chd},
		{"ArcMid", "int32", 4, chd},
		{"ArcEdge", "roadnet.EdgeID", 4, chd},
		{"UpStart", "int32", 4, chd},
		{"UpArcs", "int32", 4, chd},
		{"DownStart", "int32", 4, chd},
		{"DownArcs", "int32", 4, chd},
		{"IdxKeys", "int64", 8, chd},
		{"IdxVals", "int32", 4, chd},
	}
	dir := data[align8(FrameHeaderLen+int(binary.BigEndian.Uint64(data[44:52]))):]
	if n := binary.NativeEndian.Uint32(dir[12:16]); int(n) != len(layout) || n != rawGraphArrayCount+rawCHArrayCount {
		t.Fatalf("directory holds %d arrays, want 8 graph + 12 CH", n)
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

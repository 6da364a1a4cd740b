package partition

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"pathrank/internal/dataset"
	"pathrank/internal/pathrank"
	"pathrank/internal/roadnet"
	"pathrank/internal/spath"
)

// endpointSlack is spath's corridorSlack: the relative margin every
// consumer of a stitched distance allows, far above the last-bit
// differences between sweeps rooted at either end of a path.
const endpointSlack = 1e-9

// bundleMap builds a bundle of g in parts shards and loads its map back.
func bundleMap(t testing.TB, g *roadnet.Graph, parts int) (*ShardMap, string) {
	t.Helper()
	model, err := pathrank.New(g.NumVertices(), pathrank.Config{
		EmbeddingDim: 4, Hidden: 4, Variant: pathrank.PRA2, Body: pathrank.GRUBody, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	art := &pathrank.Artifact{Graph: g, Model: model, Candidates: dataset.Config{Strategy: dataset.DTkDI, K: 4, Threshold: 0.8}}
	dir := t.TempDir()
	if _, err := BuildBundle(art, dir, parts, nil); err != nil {
		t.Fatal(err)
	}
	sm, err := LoadShardMapFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	return sm, dir
}

// tableWorld is a road network the table tests bundle, and its shard count.
type tableWorld struct {
	name  string
	gen   func(t *testing.T) *roadnet.Graph
	parts int
}

// tableWorlds are the router tests' worlds, one with one-way streets
// (where a table built in the wrong direction would show), and the served
// 56×56 world.
func tableWorlds() []tableWorld {
	served := roadnet.DefaultGenConfig()
	served.Rows, served.Cols, served.Seed = 56, 56, 1
	return []tableWorld{
		{"router-world/seed=5/parts=2", func(t *testing.T) *roadnet.Graph { return testGraph(t, 8, 9, 5) }, 2},
		{"router-world/seed=21/parts=3", func(t *testing.T) *roadnet.Graph { return testGraph(t, 8, 9, 21) }, 3},
		{"one-way/seed=5/parts=3", func(t *testing.T) *roadnet.Graph { return oneWay(testGraph(t, 8, 9, 5), 6) }, 3},
		{"served-world/parts=4", func(t *testing.T) *roadnet.Graph {
			g, err := roadnet.Generate(served)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}, 4},
	}
}

// TestBoundaryTablesMatchSweeps: every endpoint table entry — each owned
// vertex against each boundary vertex of its shard, under both metrics and
// in both directions — is, within endpointSlack, what a live boundary
// sweep rooted at the owned vertex on the shard's induced subgraph gives,
// and +Inf exactly where that sweep finds no path, on every table world.
func TestBoundaryTablesMatchSweeps(t *testing.T) {
	for _, tc := range tableWorlds() {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.gen(t)
			sm, _ := bundleMap(t, g, tc.parts)
			checked := 0
			for s := range sm.Parts {
				sg, _ := ExtractShard(g, sm.Owner, int32(s))
				B := sm.Boundary[s]
				ws := spath.GetWorkspace(sg)
				live := make([]float64, len(B))
				for _, w := range []pathrank.WeightKind{pathrank.WeightLength, pathrank.WeightTime} {
					wts := spath.WeightTable(sg, w.Weight())
					for v, owner := range sm.Owner {
						if int(owner) != s {
							continue
						}
						for _, rev := range []bool{false, true} {
							ws.BoundaryDistances(sg, roadnet.VertexID(v), rev, B, wts, live)
							row := sm.EndpointDistances(roadnet.VertexID(v), w, rev)
							if len(row) != len(B) {
								t.Fatalf("vertex %d: row of %d entries, shard %d has %d boundary vertices", v, len(row), s, len(B))
							}
							for k, got := range row {
								if want := live[k]; !withinSlack(got, want) {
									t.Fatalf("%s rev=%v: d(%d, boundary %d) is %v in the table, %v by a live sweep", w, rev, v, B[k], got, want)
								}
								checked++
							}
						}
					}
				}
				ws.Release()
			}
			if checked == 0 {
				t.Fatal("no table entries checked")
			}
		})
	}
}

// TestBoundaryTablesFromOverlay: the boundary-to-boundary tables DLen and
// DTime of a built bundle are, bit for bit, distanceTable over the map's
// boundary overlay, and on every table world they are within endpointSlack
// of sweeps over the full graph, +Inf exactly where those find no path.
func TestBoundaryTablesFromOverlay(t *testing.T) {
	for _, tc := range tableWorlds() {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.gen(t)
			sm, _ := bundleMap(t, g, tc.parts)
			ov, ids := sm.overlay()
			for _, m := range []struct {
				name string
				d    []float64
				w    spath.Weight
			}{{"DLen", sm.DLen, spath.ByLength}, {"DTime", sm.DTime, spath.ByTime}} {
				want := distanceTable(ov, m.w, ids)
				for i := range want {
					if math.Float64bits(m.d[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s[%d] = %v, the overlay gives %v", m.name, i, m.d[i], want[i])
					}
				}
				moved, worst := requireNearFullGraph(t, g, sm.GlobalBoundary(), m.d, m.w)
				t.Logf("%s: %d of %d entries differ from full-graph sweeps, at most %.3g relative", m.name, moved, len(m.d), worst)
			}
		})
	}
}

// requireNearFullGraph checks the |B|×|B| table d against sweeps over g
// rooted at each vertex of B: within endpointSlack, and +Inf exactly where
// a sweep finds no path. It returns how many entries differ in any bit and
// the largest relative difference.
func requireNearFullGraph(t *testing.T, g *roadnet.Graph, B []roadnet.VertexID, d []float64, w spath.Weight) (moved int, worst float64) {
	t.Helper()
	nb := len(B)
	if len(d) != nb*nb {
		t.Fatalf("table of %d entries for %d boundary vertices", len(d), nb)
	}
	wts := spath.WeightTable(g, w)
	ws := spath.GetWorkspace(g)
	defer ws.Release()
	row := make([]float64, nb)
	for i, b := range B {
		ws.BoundaryDistances(g, b, false, B, wts, row)
		for j, want := range row {
			got := d[i*nb+j]
			if !withinSlack(got, want) {
				t.Fatalf("d(%d, %d) is %v in the table, %v by a full-graph sweep", b, B[j], got, want)
			}
			if got != want {
				moved++
				worst = max(worst, math.Abs(got-want)/want)
			}
		}
	}
	return moved, worst
}

// withinSlack reports whether a table's got is a live search's want up to
// endpointSlack, relative, with +Inf only where want is +Inf.
func withinSlack(got, want float64) bool {
	if math.IsInf(got, 1) || math.IsInf(want, 1) {
		return got == want
	}
	return math.Abs(got-want) <= endpointSlack*want
}

// oneWay returns g without every k-th edge. The generated networks have
// two-way streets of equal cost, so d(u→v) = d(v→u) there; dropping single
// directions makes distances depend on direction and leaves some pairs
// without a path.
func oneWay(g *roadnet.Graph, k int) *roadnet.Graph {
	data := g.RawData()
	var edges []roadnet.Edge
	for i, e := range data.Edges {
		if i%k != k-1 {
			e.ID = roadnet.EdgeID(len(edges))
			edges = append(edges, e)
		}
	}
	return roadnet.NewGraphFromData(data.Vertices, edges)
}

// rewriteShardMap rewrites the shard map file in dir with edit applied to
// its tables' byte image, and returns the new file's bytes.
func rewriteShardMap(t *testing.T, dir string, edit func(image []byte) []byte) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, ShardMapName))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := pathrank.DecodeFrame(data, shardMapMagic, shardMapVersion)
	if err != nil {
		t.Fatal(err)
	}
	params := data[pathrank.FrameHeaderLen+len(payload):]
	start := 16 + int(binary.BigEndian.Uint64(payload))
	payload = slices.Concat(payload[:start], edit(bytes.Clone(payload[start:])))
	h := pathrank.EncodeFrame(shardMapMagic, shardMapVersion, payload)
	return slices.Concat(h[:], payload, params)
}

// TestShardMapRejectsPoisonedEndpointTables: the router stitches from the
// boundary and endpoint tables without checking them, so a load refuses
// tables that hold a distance that is no cost (NaN, negative) or are
// shaped for other rows or columns than Owner and Boundary give.
func TestShardMapRejectsPoisonedEndpointTables(t *testing.T) {
	sm, dir := bundleMap(t, testGraph(t, 8, 9, 5), 2)
	nb := len(sm.Boundary[0])
	// The endpoint tables follow DLen and DTime in the image.
	ep := 2 * len(sm.DLen)
	put := func(i int, x float64) func([]byte) []byte {
		return func(image []byte) []byte {
			binary.LittleEndian.PutUint64(image[8*i:], math.Float64bits(x))
			return image
		}
	}
	for _, tc := range []struct {
		name, want string
		edit       func([]byte) []byte
	}{
		{"NaN distance", "not a cost", put(ep+3, math.NaN())},
		{"negative distance", "not a cost", put(ep+len(sm.endpoint[0])+5, -1)},
		{"negative zero", "not a cost", put(ep, math.Copysign(0, -1))},
		{"negative infinity", "not a cost", put(ep+7, math.Inf(-1))},
		{"NaN boundary length", "DLen entry 3 is NaN", put(3, math.NaN())},
		{"negative zero boundary time", "DTime entry 1 is -0", put(len(sm.DLen)+1, math.Copysign(0, -1))},
		{"one row short", "endpoint tables hold", func(image []byte) []byte {
			return slices.Delete(image, 8*ep, 8*(ep+nb))
		}},
		{"one column short", "endpoint tables hold", func(image []byte) []byte {
			// Every row of every table of shard 0 loses its last entry.
			rows := len(sm.endpoint[0]) / nb
			short := image[: 8*ep : 8*ep]
			for r := range rows {
				short = append(short, image[8*(ep+r*nb):8*(ep+r*nb+nb-1)]...)
			}
			return append(short, image[8*(ep+len(sm.endpoint[0])):]...)
		}},
		{"boundary table one short", "endpoint tables hold", func(image []byte) []byte { return image[8:] }},
		{"one byte long", "endpoint tables hold", func(image []byte) []byte { return append(image, 0) }},
		{"no tables", "endpoint tables hold", func([]byte) []byte { return nil }},
	} {
		_, err := LoadShardMap(rewriteShardMap(t, dir, tc.edit))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: load returned %v, want an error mentioning %q", tc.name, err, tc.want)
		}
	}
	// Unedited, the same rewrite loads: each case failed on its defect.
	if _, err := LoadShardMap(rewriteShardMap(t, dir, func(image []byte) []byte { return image })); err != nil {
		t.Fatalf("unedited map: %v", err)
	}
}

// TestShardMapRefusesOldVersion: a map written before the endpoint tables
// existed (version 1), as a gob message (version 2) or with the params
// inside the payload (version 3) is refused, and the error says to
// rebuild the bundle.
func TestShardMapRefusesOldVersion(t *testing.T) {
	_, dir := bundleMap(t, testGraph(t, 7, 7, 3), 2)
	data, err := os.ReadFile(filepath.Join(dir, ShardMapName))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint32{1, 2, 3} {
		h := pathrank.EncodeFrame(shardMapMagic, v, data[pathrank.FrameHeaderLen:])
		_, err = LoadShardMap(append(h[:], data[pathrank.FrameHeaderLen:]...))
		if !errors.Is(err, pathrank.ErrArtifactVersion) || !strings.Contains(err.Error(), "rebuild the bundle") {
			t.Fatalf("version-%d map: %v, want a version error that says to rebuild the bundle", v, err)
		}
	}
}

// FuzzLoadShardMap: on arbitrary bytes LoadShardMap returns an error and
// never panics. The checksum and the params digest screen random bytes,
// so every input is also tried resealed: its payload under a correctly
// sealed frame with the params after it, and Fingerprint rewritten to the
// params' hash, which takes a mutation through to the JSON header, the
// tables, validation and the params decoder. Whatever loads must hold
// readable endpoint rows of costs for every vertex, since the router reads
// them unchecked, and a Fingerprint that is the params' hash; the model it
// hands over must carry that fingerprint when the stream is canonical.
func FuzzLoadShardMap(f *testing.F) {
	_, dir := bundleMap(f, testGraph(f, 4, 4, 2), 2)
	valid, err := os.ReadFile(filepath.Join(dir, ShardMapName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[pathrank.FrameHeaderLen:])
	f.Add(valid[:len(valid)-1])
	f.Add(append(bytes.Clone(valid), 0))
	flipped := bytes.Clone(valid)
	flipped[len(flipped)-7] ^= 0x01 // a params byte
	f.Add(flipped)
	// A one-vertex map, whose payload the fuzzer can change more of.
	tiny := &ShardMap{
		Parts: 2, NumVertices: 1, Owner: []int32{1}, Boundary: [][]roadnet.VertexID{nil, {0}},
		DLen: []float64{0}, DTime: []float64{0}, ModelParams: []byte{7},
	}
	sum := sha256.Sum256(tiny.ModelParams)
	tiny.Fingerprint = hex.EncodeToString(sum[:])
	tiny.setEndpoint([][]float64{nil, {0, 1, 2, math.Inf(1)}})
	var small bytes.Buffer
	if err := SaveShardMap(&small, tiny); err != nil {
		f.Fatal(err)
	}
	f.Add(small.Bytes())
	f.Add(small.Bytes()[pathrank.FrameHeaderLen:])
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, resealShardMap(data)} {
			if in == nil {
				continue
			}
			m, err := LoadShardMap(in)
			if err != nil {
				continue
			}
			for v := range m.Owner {
				for _, w := range []pathrank.WeightKind{pathrank.WeightLength, pathrank.WeightTime} {
					for _, rev := range []bool{false, true} {
						row := m.EndpointDistances(roadnet.VertexID(v), w, rev)
						if len(row) != len(m.Boundary[m.Owner[v]]) {
							t.Fatalf("vertex %d: %d entries for %d boundary vertices", v, len(row), len(m.Boundary[m.Owner[v]]))
						}
						for _, x := range row {
							if math.IsNaN(x) || math.Signbit(x) {
								t.Fatalf("vertex %d: loaded distance %v", v, x)
							}
						}
					}
				}
			}
			sum := sha256.Sum256(m.ModelParams)
			if fp := hex.EncodeToString(sum[:]); fp != m.Fingerprint {
				t.Fatalf("loaded params hash to %s under the fingerprint %s", fp, m.Fingerprint)
			}
			model, err := m.Model()
			if err != nil {
				continue
			}
			if got, err := model.FingerprintHex(); err != nil || got != m.Fingerprint {
				t.Fatalf("the map's model has fingerprint %s (%v), the map records %s", got, err, m.Fingerprint)
			}
		}
	})
}

// resealShardMap treats data as a payload followed by params: when its
// prefix's lengths fit, it rewrites the JSON header's Fingerprint to the
// params' hash and seals the payload in a valid frame. It returns nil
// when the prefix does not fit or the header is no JSON object.
func resealShardMap(data []byte) []byte {
	if len(data) < 16 {
		return nil
	}
	h, p := binary.BigEndian.Uint64(data), binary.BigEndian.Uint64(data[8:])
	if h > uint64(len(data)-16) || p > uint64(len(data)-16)-h {
		return nil
	}
	head := data[16 : 16+h]
	payload, params := data[16+h:len(data)-int(p)], data[len(data)-int(p):]
	var fields map[string]json.RawMessage
	if json.Unmarshal(head, &fields) != nil {
		return nil
	}
	sum := sha256.Sum256(params)
	fields["Fingerprint"], _ = json.Marshal(hex.EncodeToString(sum[:]))
	head, err := json.Marshal(fields)
	if err != nil {
		return nil
	}
	prefix := binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(nil, uint64(len(head))), p)
	body := slices.Concat(prefix, head, payload)
	frame := pathrank.EncodeFrame(shardMapMagic, shardMapVersion, body)
	return slices.Concat(frame[:], body, params)
}

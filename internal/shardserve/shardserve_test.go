package shardserve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"pathrank/internal/api"
	"pathrank/internal/dataset"
	"pathrank/internal/geo"
	"pathrank/internal/partition"
	"pathrank/internal/pathrank"
	"pathrank/internal/roadnet"
	"pathrank/internal/serve"
	"pathrank/internal/spath"
)

// shardWorld builds a small artifact, partitions it in two, and returns
// the unpartitioned artifact plus shard 0's.
func shardWorld(t *testing.T) (whole, shard *pathrank.Artifact) {
	t.Helper()
	g, err := roadnet.Generate(roadnet.GenConfig{
		Rows: 6, Cols: 7, SpacingM: 220, JitterFrac: 0.3,
		Origin: geo.Point{Lon: 10, Lat: 57}, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	model, err := pathrank.New(g.NumVertices(), pathrank.Config{
		EmbeddingDim: 4, Hidden: 4, Variant: pathrank.PRA2, Body: pathrank.GRUBody, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	whole = &pathrank.Artifact{Graph: g, Model: model, Candidates: dataset.DefaultConfig()}
	dir := t.TempDir()
	if _, err := partition.BuildBundle(whole, dir, 2, nil); err != nil {
		t.Fatal(err)
	}
	shard, err = pathrank.LoadArtifactFile(dir + "/" + partition.ShardArtifactName(0))
	if err != nil {
		t.Fatal(err)
	}
	return whole, shard
}

func TestNewRejectsNonShardArtifact(t *testing.T) {
	whole, _ := shardWorld(t)
	srv, err := serve.New(whole, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := New(srv); err == nil {
		t.Fatal("New wrapped an artifact that carries no shard metadata")
	}
}

// reseal rebuilds a frame around a mutated copy of its payload, under the
// frame's own magic and version, so a defect inside the payload reaches the
// payload decoder instead of failing the checksum.
func reseal(frame []byte, mutate func(payload []byte) []byte) []byte {
	payload := mutate(bytes.Clone(frame[pathrank.FrameHeaderLen:]))
	h := pathrank.EncodeFrame([8]byte(frame[:8]), binary.BigEndian.Uint32(frame[8:12]), payload)
	return append(h[:], payload...)
}

// TestSubQueryValidation: every malformed shard sub-query is answered with
// the typed error envelope and the right status, never a panic or a 200.
func TestSubQueryValidation(t *testing.T) {
	_, shard := shardWorld(t)
	srv, err := serve.New(shard, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ss, err := New(srv)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(ss.Handler())
	defer ts.Close()
	n := shard.Graph.NumVertices()
	b0 := shard.Shard.Boundary[0]
	corridor := pathrank.EncodeCorridorQuery(pathrank.CorridorQuery{
		Bound: 10, Seeds: []spath.Seed{{V: b0}}, RSeeds: []spath.Seed{{V: b0}},
	})
	seeds := func(s, r []spath.Seed) []byte {
		return pathrank.EncodeCorridorQuery(pathrank.CorridorQuery{Bound: 10, Seeds: s, RSeeds: r})
	}
	bound := func(c float64) []byte { return pathrank.EncodeCorridorQuery(pathrank.CorridorQuery{Bound: c}) }
	flip := func(frame []byte, off int) []byte {
		out := bytes.Clone(frame)
		out[off] ^= 0x01
		return out
	}
	version2 := func(frame []byte) []byte {
		out := bytes.Clone(frame)
		binary.BigEndian.PutUint32(out[8:12], 2)
		return out
	}
	setByte := func(off int, v byte) func([]byte) []byte {
		return func(p []byte) []byte { p[off] = v; return p }
	}
	oversized := append(bytes.Clone(corridor), make([]byte, maxShardBody)...)
	// The corridor query's forward-seed count sits after bound and weight.
	seedCount := 8 + 1

	for _, tc := range []struct {
		name, path string
		body       []byte
		status     int
	}{
		{"corridor: negative bound", "/shard/corridor", bound(-1), 400},
		{"corridor: NaN bound", "/shard/corridor", bound(math.NaN()), 400},
		{"corridor: Inf bound", "/shard/corridor", bound(math.Inf(1)), 400},
		{"corridor: seed out of range", "/shard/corridor", seeds([]spath.Seed{{V: roadnet.VertexID(n)}}, nil), 400},
		{"corridor: rseed out of range", "/shard/corridor", seeds(nil, []spath.Seed{{V: -2}}), 400},
		{"corridor: NaN seed distance", "/shard/corridor", seeds([]spath.Seed{{V: b0, Dist: math.NaN()}}, nil), 400},
		{"corridor: negative rseed distance", "/shard/corridor", seeds(nil, []spath.Seed{{V: b0, Dist: -1}}), 400},
		{"corridor: unknown weight", "/shard/corridor", reseal(corridor, setByte(8, 7)), 400},
		{"corridor: seed count beyond the bytes present", "/shard/corridor", reseal(corridor, func(p []byte) []byte {
			binary.LittleEndian.PutUint32(p[seedCount:], 1<<30)
			return p
		}), 400},
		{"corridor: truncated seed array", "/shard/corridor", reseal(corridor, func(p []byte) []byte { return p[:len(p)-3] }), 400},
		{"corridor: bytes after the last field", "/shard/corridor", reseal(corridor, func(p []byte) []byte { return append(p, 1, 2) }), 400},
		{"corridor: bytes after the frame", "/shard/corridor", append(bytes.Clone(corridor), 0), 400},
		{"corridor: not a frame", "/shard/corridor", []byte(`{"bound":10}`), 400},
		{"corridor: truncated frame", "/shard/corridor", corridor[:len(corridor)-1], 400},
		{"corridor: bad magic", "/shard/corridor", flip(corridor, 7), 400},
		{"corridor: bad version", "/shard/corridor", version2(corridor), 400},
		{"corridor: checksum mismatch", "/shard/corridor", flip(corridor, pathrank.FrameHeaderLen), 400},
		{"corridor: oversized", "/shard/corridor", oversized, 413},
	} {
		resp, err := http.Post(ts.URL+tc.path, pathrank.ShardWireContentType, bytes.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, raw)
			continue
		}
		var env api.ErrorEnvelope
		if err := json.Unmarshal(raw, &env); err != nil || env.Error == nil ||
			env.Error.Code != api.CodeInvalid || env.Error.Message == "" {
			t.Errorf("%s: body %q is not a typed %s envelope", tc.name, raw, api.CodeInvalid)
		}
	}

	// The well-formed forms of the same requests succeed, so the table
	// above is rejecting the defect it names and not the request shape.
	// An unreachable seed (+Inf) is skipped, as one past the bound is.
	cr, err := pathrank.DecodeCorridorAnswer(postOK(t, ts.URL+"/shard/corridor", pathrank.EncodeCorridorQuery(pathrank.CorridorQuery{
		Bound:  1,
		Seeds:  []spath.Seed{{V: b0}, {V: 1, Dist: math.Inf(1)}},
		RSeeds: []spath.Seed{{V: b0}},
	})))
	if err != nil {
		t.Fatal(err)
	}
	if cr.NumVertices() != 1 || cr.Vertex(0).ID != b0 || cr.NumEdges() != 0 {
		t.Fatalf("corridor of one seed under a tiny bound: %d vertices, %d edges", cr.NumVertices(), cr.NumEdges())
	}
	// Endpoint-to-boundary distances come from the shard map: a worker has
	// no boundary sub-query.
	resp, err := http.Post(ts.URL+"/shard/boundary", pathrank.ShardWireContentType, bytes.NewReader(corridor))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /shard/boundary: HTTP %d, want 404", resp.StatusCode)
	}
}

func postOK(t *testing.T, url string, body []byte) []byte {
	t.Helper()
	resp, err := http.Post(url, pathrank.ShardWireContentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: HTTP %d: %s", url, resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != pathrank.ShardWireContentType {
		t.Fatalf("POST %s: Content-Type %q", url, ct)
	}
	return raw
}

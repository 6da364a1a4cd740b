package shardserve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pathrank/internal/api"
	"pathrank/internal/dataset"
	"pathrank/internal/geo"
	"pathrank/internal/partition"
	"pathrank/internal/pathrank"
	"pathrank/internal/roadnet"
	"pathrank/internal/serve"
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
	oversized := `{"v":0,"dir":"fwd",` + strings.Repeat(" ", maxShardBody) + `"weight":"length"}`

	for _, tc := range []struct {
		name, path, body string
		status           int
	}{
		{"boundary: bad dir", "/shard/boundary", `{"v":0,"dir":"sideways"}`, 400},
		{"boundary: missing dir", "/shard/boundary", `{"v":0}`, 400},
		{"boundary: v out of range", "/shard/boundary", fmt.Sprintf(`{"v":%d,"dir":"fwd"}`, n), 400},
		{"boundary: negative v", "/shard/boundary", `{"v":-1,"dir":"rev"}`, 400},
		{"boundary: unknown weight", "/shard/boundary", `{"v":0,"dir":"fwd","weight":"cost"}`, 400},
		{"boundary: unknown field", "/shard/boundary", `{"v":0,"dir":"fwd","nope":1}`, 400},
		{"boundary: not json", "/shard/boundary", `{`, 400},
		{"boundary: oversized", "/shard/boundary", oversized, 413},
		{"corridor: negative bound", "/shard/corridor", `{"seeds":[],"rseeds":[],"bound":-1}`, 400},
		{"corridor: NaN bound", "/shard/corridor", `{"seeds":[],"rseeds":[],"bound":NaN}`, 400},
		{"corridor: Inf bound", "/shard/corridor", `{"seeds":[],"rseeds":[],"bound":1e999}`, 400},
		{"corridor: seed out of range", "/shard/corridor",
			fmt.Sprintf(`{"seeds":[{"v":%d,"dist":0}],"rseeds":[],"bound":10}`, n), 400},
		{"corridor: rseed out of range", "/shard/corridor", `{"seeds":[],"rseeds":[{"v":-2,"dist":0}],"bound":10}`, 400},
		{"corridor: unknown field", "/shard/corridor", `{"seeds":[],"rseeds":[],"bound":1,"nope":1}`, 400},
		{"corridor: oversized", "/shard/corridor", oversized, 413},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
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
	var bd api.BoundaryResponse
	postOK(t, ts.URL+"/shard/boundary", fmt.Sprintf(`{"v":%d,"dir":"fwd"}`, shard.Shard.Boundary[0]), &bd)
	if len(bd.Dist) != len(shard.Shard.Boundary) || bd.Dist[0] != 0 {
		t.Fatalf("boundary sweep from a boundary vertex: %+v", bd)
	}
	var cr api.CorridorResponse
	postOK(t, ts.URL+"/shard/corridor", fmt.Sprintf(
		`{"seeds":[{"v":%d,"dist":0},{"v":1,"dist":-1}],"rseeds":[{"v":%d,"dist":0}],"bound":1}`,
		shard.Shard.Boundary[0], shard.Shard.Boundary[0]), &cr)
	if len(cr.Vertices) != 1 || cr.Vertices[0].ID != int64(shard.Shard.Boundary[0]) {
		t.Fatalf("corridor of one seed under a tiny bound: %+v", cr)
	}
}

func postOK(t *testing.T, url, body string, out any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST %s: HTTP %d: %s", url, resp.StatusCode, raw)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

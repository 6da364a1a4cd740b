// Package shardserve wraps a serving Server whose artifact is one shard
// of a partitioned bundle (internal/partition) with the shard-internal
// sub-query endpoints the fan-out router needs:
//
//	GET  /shard/info      — identity, generation, boundary size (health)
//	POST /shard/boundary  — exact distances src→boundary or boundary→dst
//	POST /shard/corridor  — corridor subgraph extraction under a bound
//
// Everything else — /v2/rank for co-resident queries, hot swap, canary
// gating, /healthz, /metrics — is the wrapped serve.Server's handler,
// unchanged: a shard worker is an ordinary PathRank server whose graph
// happens to contain only its shard's induced edges, plus three sidecar
// endpoints computed on the same pinned snapshot.
package shardserve

import (
	"errors"
	"math"
	"net/http"

	"pathrank/internal/api"
	"pathrank/internal/pathrank"
	"pathrank/internal/roadnet"
	"pathrank/internal/serve"
	"pathrank/internal/spath"
)

// maxShardBody bounds shard sub-query request bodies. Corridor seed lists
// scale with the boundary-set size, not with k, so the bound is the
// ingest-sized one rather than the rank-sized one.
const maxShardBody = 8 << 20

// Server mounts the shard sub-query endpoints next to a serve.Server's
// own handler. The wrapped server must be serving a shard artifact (one
// carrying pathrank.ShardInfo); New rejects anything else.
type Server struct {
	srv *serve.Server
}

// New wraps srv as a shard worker.
func New(srv *serve.Server) (*Server, error) {
	if srv.PinSnapshot().Artifact().Shard == nil {
		return nil, errors.New("shardserve: artifact carries no shard metadata (not built by -partition)")
	}
	return &Server{srv: srv}, nil
}

// Serve returns the wrapped serve.Server (for Reload, Close, metrics).
func (s *Server) Serve() *serve.Server { return s.srv }

// Handler returns the combined HTTP API: the wrapped server's routes plus
// the shard sub-query endpoints.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", s.srv.Handler())
	mux.HandleFunc("GET /shard/info", s.handleInfo)
	mux.HandleFunc("POST /shard/boundary", s.handleBoundary)
	mux.HandleFunc("POST /shard/corridor", s.handleCorridor)
	return mux
}

// shardView takes one view of the serving snapshot and extracts the shard
// metadata (a hot swap may have installed a non-shard artifact).
func (s *Server) shardView() (serve.Snapshot, *pathrank.Artifact, *pathrank.ShardInfo, *api.Error) {
	sn := s.srv.PinSnapshot()
	art := sn.Artifact()
	if art.Shard == nil {
		return serve.Snapshot{}, nil, nil, &api.Error{
			Code: api.CodeInternal, Message: "serving artifact carries no shard metadata",
		}
	}
	return sn, art, art.Shard, nil
}

func (s *Server) handleInfo(w http.ResponseWriter, _ *http.Request) {
	sn, art, sh, apiErr := s.shardView()
	if apiErr != nil {
		api.WriteError(w, apiErr)
		return
	}
	api.WriteJSON(w, http.StatusOK, api.ShardInfoResponse{
		Shard:            sh.Index,
		Parts:            sh.Parts,
		Fingerprint:      sn.Fingerprint(),
		Vertices:         art.Graph.NumVertices(),
		Edges:            art.Graph.NumEdges(),
		BoundaryVertices: len(sh.Boundary),
	})
}

// parseWeight maps the wire weight name onto the edge metric; "length"
// and "" are the default.
func parseWeight(name string) (spath.Weight, *api.Error) {
	wk, err := pathrank.ParseWeightKind(name)
	if err != nil {
		return nil, pathrank.APIError(err)
	}
	return wk.Weight(), nil
}

func (s *Server) handleBoundary(w http.ResponseWriter, r *http.Request) {
	var req api.BoundaryRequest
	if apiErr := api.DecodeJSON(w, r, maxShardBody, &req); apiErr != nil {
		api.WriteError(w, apiErr)
		return
	}
	weight, apiErr := parseWeight(req.Weight)
	if apiErr != nil {
		api.WriteError(w, apiErr)
		return
	}
	sn, art, sh, apiErr := s.shardView()
	if apiErr != nil {
		api.WriteError(w, apiErr)
		return
	}
	g := art.Graph
	if req.V < 0 || req.V >= int64(g.NumVertices()) {
		api.WriteError(w, api.Invalidf("v must be in [0,%d)", g.NumVertices()))
		return
	}
	v := roadnet.VertexID(req.V)
	out := make([]float64, len(sh.Boundary))
	ws := spath.GetWorkspace(g)
	switch req.Dir {
	case "fwd":
		ws.BoundedDistances(g, v, sh.Boundary, math.Inf(1), weight, out)
	case "rev":
		ws.BoundedDistancesRev(g, v, sh.Boundary, math.Inf(1), weight, out)
	default:
		ws.Release()
		api.WriteError(w, api.Invalidf("dir must be fwd or rev, got %q", req.Dir))
		return
	}
	ws.Release()
	for i, d := range out {
		if math.IsInf(d, 1) {
			out[i] = -1
		}
	}
	api.WriteJSON(w, http.StatusOK, api.BoundaryResponse{
		Shard: sh.Index, Fingerprint: sn.Fingerprint(), Dist: out,
	})
}

// wireSeeds converts wire seeds to search seeds, dropping unreachable
// entries (Dist < 0, the wire encoding of +Inf) and rejecting IDs outside
// the vertex table.
func wireSeeds(in []api.ShardSeed, n int) ([]spath.Seed, *api.Error) {
	seeds := make([]spath.Seed, 0, len(in))
	for _, s := range in {
		if s.Dist < 0 {
			continue
		}
		if s.V < 0 || s.V >= int64(n) {
			return nil, api.Invalidf("seed vertex %d out of range [0,%d)", s.V, n)
		}
		seeds = append(seeds, spath.Seed{V: roadnet.VertexID(s.V), Dist: s.Dist})
	}
	return seeds, nil
}

func (s *Server) handleCorridor(w http.ResponseWriter, r *http.Request) {
	var req api.CorridorRequest
	if apiErr := api.DecodeJSON(w, r, maxShardBody, &req); apiErr != nil {
		api.WriteError(w, apiErr)
		return
	}
	weight, apiErr := parseWeight(req.Weight)
	if apiErr != nil {
		api.WriteError(w, apiErr)
		return
	}
	if req.Bound < 0 || math.IsInf(req.Bound, 0) || math.IsNaN(req.Bound) {
		api.WriteError(w, api.Invalidf("bound must be finite and non-negative, got %g", req.Bound))
		return
	}
	sn, art, sh, apiErr := s.shardView()
	if apiErr != nil {
		api.WriteError(w, apiErr)
		return
	}
	g := art.Graph
	n := g.NumVertices()
	seeds, apiErr := wireSeeds(req.Seeds, n)
	if apiErr == nil {
		var rseeds []spath.Seed
		rseeds, apiErr = wireSeeds(req.RSeeds, n)
		if apiErr == nil {
			api.WriteJSON(w, http.StatusOK, corridor(g, sh, sn.Fingerprint(), seeds, rseeds, req.Bound, weight))
			return
		}
	}
	api.WriteError(w, apiErr)
}

// corridor runs the two seeded sweeps and extracts the corridor subgraph:
// every vertex v with fwd(v)+rev(v) <= bound (these are exact full-graph
// source/destination distances when the seeds carry exact boundary
// distances — see internal/partition's separator property) and every
// induced edge with both endpoints inside. The sweeps run on the shard's
// induced subgraph, so every vertex they reach beyond the seeds is owned
// by this shard.
func corridor(g *roadnet.Graph, sh *pathrank.ShardInfo, fp string, seeds, rseeds []spath.Seed, bound float64, weight spath.Weight) api.CorridorResponse {
	n := g.NumVertices()
	fwd := make([]float64, n)
	rev := make([]float64, n)
	ws := spath.GetWorkspace(g)
	ws.SeededDistances(g, seeds, bound, weight, fwd)
	ws.SeededDistancesRev(g, rseeds, bound, weight, rev)
	ws.Release()

	resp := api.CorridorResponse{Shard: sh.Index, Fingerprint: fp}
	in := make([]bool, n)
	for v := 0; v < n; v++ {
		if fwd[v]+rev[v] <= bound {
			in[v] = true
			vert := g.Vertex(roadnet.VertexID(v))
			resp.Vertices = append(resp.Vertices, api.CorridorVertex{
				ID: int64(v), Lon: vert.Point.Lon, Lat: vert.Point.Lat,
			})
		}
	}
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(roadnet.EdgeID(i))
		if in[e.From] && in[e.To] {
			resp.Edges = append(resp.Edges, api.CorridorEdge{
				ID:   int64(sh.EdgeGlobal[e.ID]),
				From: int64(e.From), To: int64(e.To),
				LengthM: e.Length, TimeS: e.Time, Category: uint8(e.Category),
			})
		}
	}
	return resp
}

// Package shardserve wraps a serving Server whose artifact is one shard
// of a partitioned bundle (internal/partition) with the shard-internal
// endpoints the fan-out router needs:
//
//	GET  /shard/info      — identity, generation, boundary size (health)
//	POST /shard/corridor  — corridor subgraph extraction under a bound
//
// The corridor sub-query and its answer are shard-wire frames
// (internal/pathrank's shardwire.go); /shard/info and every error are JSON.
// A cross-shard query's distances from its endpoints to the boundary come
// from the shard map's endpoint tables, so the router asks a shard nothing
// else.
//
// Everything else — /v2/rank for co-resident queries, hot swap, canary
// gating, /healthz, /metrics — is the wrapped serve.Server's routes,
// unchanged and in the same route table: a shard worker is an ordinary
// PathRank server whose graph happens to contain only its shard's induced
// edges, plus two sidecar endpoints computed on the same pinned snapshot.
package shardserve

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math"
	"net/http"
	"strconv"

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

// Handler returns the combined HTTP API: one route table of the wrapped
// server's routes plus the shard sub-query endpoints.
func (s *Server) Handler() http.Handler {
	return s.srv.Handler(
		api.Route{Method: http.MethodGet, Path: "/shard/info", Handler: s.handleInfo},
		api.Route{Method: http.MethodPost, Path: "/shard/corridor", Handler: s.handleCorridor},
	)
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

// fingerprint is the snapshot's model fingerprint as the wire carries it.
// The snapshot computes the hex form from a SHA-256, so it always decodes;
// were it ever not to, the router would refuse the mismatch.
func fingerprint(sn serve.Snapshot) (fp [sha256.Size]byte) {
	_, _ = hex.Decode(fp[:], []byte(sn.Fingerprint()))
	return fp
}

// writeFrame answers 200 with one shard-wire frame. The declared length
// keeps a frame larger than the server's write buffer from going out
// chunked, so the router reads it in one presized read.
func writeFrame(w http.ResponseWriter, frame []byte) {
	h := w.Header()
	h.Set("Content-Type", pathrank.ShardWireContentType)
	h.Set("Content-Length", strconv.Itoa(len(frame)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(frame) // the status line is out; a dead client is all that can fail here
}

// checkSeeds rejects seeds outside the vertex table and seed distances
// that are no cost: NaN or negative (+Inf is an unreachable seed, which the
// sweep skips).
func checkSeeds(seeds []spath.Seed, n int) *api.Error {
	for _, s := range seeds {
		if s.V < 0 || int(s.V) >= n {
			return api.Invalidf("seed vertex %d out of range [0,%d)", uint32(s.V), n)
		}
		if math.IsNaN(s.Dist) || s.Dist < 0 {
			return api.Invalidf("seed vertex %d has distance %g, want a non-negative cost", s.V, s.Dist)
		}
	}
	return nil
}

func (s *Server) handleCorridor(w http.ResponseWriter, r *http.Request) {
	body, apiErr := api.ReadBody(w, r, maxShardBody)
	if apiErr != nil {
		api.WriteError(w, apiErr)
		return
	}
	q, err := pathrank.DecodeCorridorQuery(body)
	if err != nil {
		api.WriteError(w, api.Invalidf("%v", err))
		return
	}
	if q.Bound < 0 || math.IsInf(q.Bound, 0) || math.IsNaN(q.Bound) {
		api.WriteError(w, api.Invalidf("bound must be finite and non-negative, got %g", q.Bound))
		return
	}
	sn, art, sh, apiErr := s.shardView()
	if apiErr != nil {
		api.WriteError(w, apiErr)
		return
	}
	g := art.Graph
	if apiErr := checkSeeds(q.Seeds, g.NumVertices()); apiErr != nil {
		api.WriteError(w, apiErr)
		return
	}
	if apiErr := checkSeeds(q.RSeeds, g.NumVertices()); apiErr != nil {
		api.WriteError(w, apiErr)
		return
	}
	ws := spath.GetWorkspace(g)
	frame := corridor(ws, g, sh, fingerprint(sn), q, sn.Weights(q.Weight))
	ws.Release()
	writeFrame(w, frame)
}

// corridor extracts the corridor subgraph on ws over the weight table wts
// (Workspace.Corridor) and encodes it under global IDs. The sweeps run on
// the shard's induced subgraph, so every vertex they reach beyond the seeds
// is owned by this shard. Vertex IDs are global already, and local edge IDs
// follow global edge order (partition.ExtractShard), so both lists stay
// ascending.
func corridor(ws *spath.Workspace, g *roadnet.Graph, sh *pathrank.ShardInfo, fp [sha256.Size]byte, q pathrank.CorridorQuery, wts []float64) []byte {
	vs, es := ws.Corridor(g, q.Seeds, q.RSeeds, q.Bound, wts)
	vertices := make([]roadnet.Vertex, len(vs))
	for i, v := range vs {
		vertices[i] = g.Vertex(v)
	}
	edges := make([]roadnet.Edge, len(es))
	for i, id := range es {
		e := g.Edge(id)
		e.ID = sh.EdgeGlobal[id]
		edges[i] = e
	}
	return pathrank.EncodeCorridorAnswer(fp, vertices, edges)
}

package spath

import (
	"context"
	"fmt"
	"strings"

	"pathrank/internal/roadnet"
)

// EngineKind names a shortest-path backend.
type EngineKind uint8

const (
	// EngineDijkstra is plain workspace-backed Dijkstra: no preprocessing.
	EngineDijkstra EngineKind = iota
	// EngineCH is contraction hierarchies: preprocessing once, then the
	// fastest exact point-to-point and many-to-many queries.
	EngineCH
)

// String names the kind as accepted by ParseEngineKind.
func (k EngineKind) String() string {
	switch k {
	case EngineDijkstra:
		return "dijkstra"
	case EngineCH:
		return "ch"
	default:
		return fmt.Sprintf("engine(%d)", uint8(k))
	}
}

// ParseEngineKind parses an engine name ("dijkstra", "ch").
func ParseEngineKind(s string) (EngineKind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "dijkstra", "":
		return EngineDijkstra, nil
	case "ch":
		return EngineCH, nil
	default:
		return EngineDijkstra, fmt.Errorf("spath: unknown engine %q (want dijkstra or ch)", s)
	}
}

// Engine answers exact shortest-path queries over one (graph, weight)
// pair. Every backend returns minimum-cost results — the choice of kind
// affects preprocessing and query time, never optimality — so consumers
// (map matching, the sharded tier's boundary tables) can switch engines
// without changing outputs beyond floating-point tie-breaking among
// equal-cost paths. Candidate generation does not use an engine: it runs
// on a weight table (DiversifiedTopKStatsCtx).
//
// Engines are immutable after construction and safe for concurrent use;
// per-query state lives in pooled workspaces.
type Engine interface {
	// Kind reports the backend.
	Kind() EngineKind
	// Graph returns the road network the engine was built for.
	Graph() *roadnet.Graph
	// ShortestCtx returns a minimum-cost path from src to dst, or
	// ErrNoPath, honoring ctx: cancellation aborts the search and returns
	// ctx's error. The check is amortized over heap pops, so a
	// never-canceled context changes neither the result nor, measurably,
	// the cost.
	ShortestCtx(ctx context.Context, src, dst roadnet.VertexID) (Path, error)
	// ManyToMany fills out[i][j] with the exact cost from sources[i] to
	// targets[j] for every pair within bound; pairs farther than bound
	// (and unreachable pairs) get +Inf. out must have len(sources) rows of
	// len(targets) columns. Pass math.Inf(1) for an unbounded query.
	ManyToMany(sources, targets []roadnet.VertexID, bound float64, out [][]float64)
}

// engineBase is what every backend holds: the (graph, weight) pair.
type engineBase struct {
	g *roadnet.Graph
	w Weight
}

func (b *engineBase) Graph() *roadnet.Graph { return b.g }

// NewEngine builds an engine of the requested kind over g and w,
// performing whatever preprocessing the kind needs (none for Dijkstra,
// contraction for CH). A prebuilt hierarchy can be wrapped directly with
// EngineFromCH instead.
func NewEngine(kind EngineKind, g *roadnet.Graph, w Weight) Engine {
	if kind == EngineCH {
		return EngineFromCH(BuildCH(g, w), g, w)
	}
	return NewDijkstraEngine(g, w)
}

// --- Dijkstra backend ---

type dijkstraEngine struct{ engineBase }

// NewDijkstraEngine wraps plain workspace Dijkstra as an Engine. It is the
// no-preprocessing baseline the CH engine must agree with.
func NewDijkstraEngine(g *roadnet.Graph, w Weight) Engine {
	return &dijkstraEngine{engineBase{g, w}}
}

func (e *dijkstraEngine) Kind() EngineKind { return EngineDijkstra }

func (e *dijkstraEngine) ShortestCtx(ctx context.Context, src, dst roadnet.VertexID) (Path, error) {
	return DijkstraCtx(ctx, e.g, src, dst, e.w)
}

// ManyToMany runs one bounded multi-target search per source on a shared
// pooled workspace.
func (e *dijkstraEngine) ManyToMany(sources, targets []roadnet.VertexID, bound float64, out [][]float64) {
	ws := GetWorkspace(e.g)
	defer ws.Release()
	for i, s := range sources {
		ws.BoundedDistances(e.g, s, targets, bound, e.w, out[i])
	}
}

// --- CH backend ---

type chEngine struct {
	engineBase
	ch *ContractionHierarchy
}

// EngineFromCH wraps a prebuilt contraction hierarchy as an Engine. w must
// be the weight function the hierarchy was built with.
func EngineFromCH(ch *ContractionHierarchy, g *roadnet.Graph, w Weight) Engine {
	return &chEngine{engineBase{g, w}, ch}
}

func (e *chEngine) Kind() EngineKind { return EngineCH }

func (e *chEngine) ShortestCtx(ctx context.Context, src, dst roadnet.VertexID) (Path, error) {
	p, err := e.ch.QueryCtx(ctx, src, dst)
	if err != nil {
		return p, err
	}
	// The bidirectional search accumulates the cost through shortcut sums,
	// whose floating-point rounding can differ from Dijkstra's sequential
	// accumulation in the last ulp. Re-sum the unpacked edges left to right
	// — exactly Dijkstra's association — so costs are bit-identical across
	// engines.
	p.Cost = 0
	for _, eid := range p.Edges {
		p.Cost += e.w(e.g.Edge(eid))
	}
	return p, nil
}

func (e *chEngine) ManyToMany(sources, targets []roadnet.VertexID, bound float64, out [][]float64) {
	e.ch.ManyToMany(sources, targets, bound, out)
}

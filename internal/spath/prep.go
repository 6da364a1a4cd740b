package spath

import (
	"encoding/gob"
	"fmt"
	"io"

	"pathrank/internal/roadnet"
)

// Prep bundles the precomputed speedup structures for one road network
// under the ByLength weight — the metric every candidate-generation and
// map-matching consumer routes with. Building a Prep once (at training
// time) and persisting it in the serving artifact is what lets
// pathrank-serve cold-start without any preprocessing.
//
// Either structure may be nil: a Prep carries whatever was built or
// loaded, and consumers fall back to construction on demand for the kinds
// it lacks.
type Prep struct {
	CH  *ContractionHierarchy
	ALT *ALT
}

// PrepConfig parameterizes BuildPrep.
type PrepConfig struct {
	// Landmarks is the ALT landmark count (default DefaultLandmarks).
	Landmarks int
	// SkipALT omits the landmark tables.
	SkipALT bool
}

// BuildPrep preprocesses g under ByLength according to cfg.
func BuildPrep(g *roadnet.Graph, cfg PrepConfig) *Prep {
	p := &Prep{CH: BuildCH(g, ByLength)}
	if !cfg.SkipALT {
		lm := cfg.Landmarks
		if lm <= 0 {
			lm = DefaultLandmarks
		}
		p.ALT = BuildALT(g, ByLength, lm)
	}
	return p
}

// Engine wires the prep's structure of the requested kind into an Engine
// over g, or returns nil when the prep does not carry that structure (the
// caller then builds one with NewEngine). EngineDijkstra always succeeds —
// it needs no preprocessing.
func (p *Prep) Engine(kind EngineKind, g *roadnet.Graph) Engine {
	if p == nil {
		if kind == EngineDijkstra {
			return NewDijkstraEngine(g, ByLength)
		}
		return nil
	}
	switch kind {
	case EngineCH:
		if p.CH != nil {
			return EngineFromCH(p.CH, g, ByLength)
		}
	case EngineALT:
		if p.ALT != nil {
			return EngineFromALT(p.ALT)
		}
	case EngineDijkstra:
		return NewDijkstraEngine(g, ByLength)
	}
	return nil
}

// BestEngine returns the fastest engine the prep can wire without any
// building: CH when present, else ALT, else nil.
func (p *Prep) BestEngine(g *roadnet.Graph) Engine {
	if e := p.Engine(EngineCH, g); e != nil {
		return e
	}
	return p.Engine(EngineALT, g)
}

// prepWire is the gob payload of a serialized Prep: the ALT landmark list
// and both distance tables. The CH is not in it — it persists as flat
// arrays (CHData) in the artifact's raw section.
type prepWire struct {
	NumVertices int32
	NumEdges    int32
	Landmarks   []int32
	FromLM      [][]float64
	ToLM        [][]float64
}

// Save writes the prep's gob section — the ALT tables only; see prepWire.
// The graph itself is not stored: LoadPrep re-binds the tables to the
// caller's graph and validates shape compatibility.
func (p *Prep) Save(w io.Writer) error {
	var wire prepWire
	if a := p.ALT; a != nil {
		wire.NumVertices = int32(a.g.NumVertices())
		wire.NumEdges = int32(a.g.NumEdges())
		wire.Landmarks = make([]int32, len(a.landmarks))
		for i, l := range a.landmarks {
			wire.Landmarks[i] = int32(l)
		}
		wire.FromLM = a.fromLM
		wire.ToLM = a.toLM
	}
	if err := gob.NewEncoder(w).Encode(wire); err != nil {
		return fmt.Errorf("spath: encode prep: %w", err)
	}
	return nil
}

// LoadPrep reads a prep section written by Save and re-binds it to g,
// validating every index against g's shape first — tables decoded from a
// corrupt or mismatched payload fail here instead of panicking at query
// time. The returned prep has no CH; the artifact loader attaches it.
func LoadPrep(r io.Reader, g *roadnet.Graph) (*Prep, error) {
	var wire prepWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("spath: decode prep: %w", err)
	}
	p := &Prep{}
	nl := len(wire.Landmarks)
	if nl == 0 {
		return p, nil
	}
	n, m := int32(g.NumVertices()), int32(g.NumEdges())
	if wire.NumVertices != n || wire.NumEdges != m {
		return nil, fmt.Errorf("spath: prep built for %dv/%de graph, loading against %dv/%de",
			wire.NumVertices, wire.NumEdges, n, m)
	}
	if len(wire.FromLM) != nl || len(wire.ToLM) != nl {
		return nil, fmt.Errorf("spath: prep landmark tables cover %d/%d of %d landmarks",
			len(wire.FromLM), len(wire.ToLM), nl)
	}
	a := &ALT{g: g, w: ByLength, fromLM: wire.FromLM, toLM: wire.ToLM}
	for i, l := range wire.Landmarks {
		if l < 0 || l >= n {
			return nil, fmt.Errorf("spath: prep landmark %d vertex %d out of range", i, l)
		}
		if int32(len(wire.FromLM[i])) != n || int32(len(wire.ToLM[i])) != n {
			return nil, fmt.Errorf("spath: prep landmark %d table sized %d/%d, want %d",
				i, len(wire.FromLM[i]), len(wire.ToLM[i]), n)
		}
		a.landmarks = append(a.landmarks, roadnet.VertexID(l))
	}
	p.ALT = a
	return p, nil
}

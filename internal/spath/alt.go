package spath

import (
	"math"

	"pathrank/internal/geo"
	"pathrank/internal/roadnet"
)

// ALT is A* with landmark lower bounds (Goldberg & Harrelson 2005): a set
// of landmark vertices is chosen, exact distances to and from every
// landmark are precomputed, and queries use the triangle inequality
// |d(L,t) - d(L,v)| as an admissible heuristic. On road networks ALT
// typically settles far fewer vertices than plain Dijkstra while remaining
// exactly optimal.
type ALT struct {
	g         *roadnet.Graph
	w         Weight
	landmarks []roadnet.VertexID
	// fromLM[l][v] = d(landmark_l, v); toLM[l][v] = d(v, landmark_l).
	fromLM [][]float64
	toLM   [][]float64
}

// BuildALT preprocesses g with numLandmarks landmarks selected by the
// farthest-point heuristic under w.
func BuildALT(g *roadnet.Graph, w Weight, numLandmarks int) *ALT {
	if numLandmarks < 1 {
		numLandmarks = 1
	}
	if numLandmarks > g.NumVertices() {
		numLandmarks = g.NumVertices()
	}
	a := &ALT{g: g, w: w}

	// Farthest-point selection: start from the vertex farthest from the
	// geographic center, then repeatedly add the vertex maximizing the
	// minimum distance to chosen landmarks.
	center := g.BBox().Center()
	first := roadnet.VertexID(0)
	bestD := -1.0
	for v := 0; v < g.NumVertices(); v++ {
		if d := geo.Distance(g.Vertex(roadnet.VertexID(v)).Point, center); d > bestD {
			bestD = d
			first = roadnet.VertexID(v)
		}
	}
	a.addLandmark(first)
	for len(a.landmarks) < numLandmarks {
		next := roadnet.VertexID(-1)
		nextD := -1.0
		for v := 0; v < g.NumVertices(); v++ {
			minD := math.Inf(1)
			for li := range a.landmarks {
				if d := a.fromLM[li][v]; d < minD {
					minD = d
				}
			}
			if !math.IsInf(minD, 1) && minD > nextD {
				nextD = minD
				next = roadnet.VertexID(v)
			}
		}
		if next < 0 {
			break
		}
		a.addLandmark(next)
	}
	return a
}

// addLandmark sweeps out from l and, over the in-arcs, into it.
func (a *ALT) addLandmark(l roadnet.VertexID) {
	ws := GetWorkspace(a.g)
	defer ws.Release()
	seed := []Seed{{l, 0}}
	from := make([]float64, a.g.NumVertices())
	to := make([]float64, a.g.NumVertices())
	ws.SeededDistances(a.g, seed, math.Inf(1), a.w, from)
	ws.SeededDistancesRev(a.g, seed, math.Inf(1), a.w, to)
	a.landmarks = append(a.landmarks, l)
	a.fromLM = append(a.fromLM, from)
	a.toLM = append(a.toLM, to)
}

// NumLandmarks returns the number of landmarks chosen.
func (a *ALT) NumLandmarks() int { return len(a.landmarks) }

// heuristic returns an admissible lower bound on d(v, dst).
func (a *ALT) heuristic(v, dst roadnet.VertexID) float64 {
	var best float64
	for li := range a.landmarks {
		// d(v,t) >= d(L,t) - d(L,v)  and  d(v,t) >= d(v,L) - d(t,L).
		if h := a.fromLM[li][dst] - a.fromLM[li][v]; h > best {
			best = h
		}
		if h := a.toLM[li][v] - a.toLM[li][dst]; h > best {
			best = h
		}
	}
	return best
}

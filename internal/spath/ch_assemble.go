package spath

import "pathrank/internal/roadnet"

// CHData is the complete flat representation of a ContractionHierarchy:
// every query structure as plain arrays. It is what the artifact raw
// section persists, and what AssembleCH rewraps without copying — the
// slices may alias a memory-mapped file.
type CHData struct {
	Order     []int32
	ArcFrom   []int32
	ArcTo     []int32
	ArcWeight []float64
	ArcMid    []int32
	ArcEdge   []roadnet.EdgeID
	UpStart   []int32
	UpArcs    []int32
	DownStart []int32
	DownArcs  []int32
	// IdxKeys is sorted ascending; IdxVals[i] is the minimum-weight arc
	// for key IdxKeys[i] (key = from<<32 | uint32(to)).
	IdxKeys []int64
	IdxVals []int32
}

// RawData returns the hierarchy's flat arrays without copying. Kept
// because benchmark/'s artifact persists a hierarchy.
func (ch *ContractionHierarchy) RawData() CHData {
	return CHData{
		Order:     ch.order,
		ArcFrom:   ch.arcFrom,
		ArcTo:     ch.arcTo,
		ArcWeight: ch.arcWeight,
		ArcMid:    ch.arcMid,
		ArcEdge:   ch.arcEdge,
		UpStart:   ch.upStart,
		UpArcs:    ch.upArcs,
		DownStart: ch.downStart,
		DownArcs:  ch.downArcs,
		IdxKeys:   ch.idxKeys,
		IdxVals:   ch.idxVals,
	}
}

// AssembleCH wraps pre-built arrays as a queryable ContractionHierarchy
// without copying or rebuilding anything — load cost is O(1) regardless
// of arc count, which is what makes a memory-mapped artifact cold-start
// in O(open). The arrays must satisfy RawData's layout for g; the
// artifact's heap loader validates them first, the mapped open trusts
// its own writer. Kept because benchmark/'s artifact reloads a hierarchy.
func AssembleCH(g *roadnet.Graph, d CHData) *ContractionHierarchy {
	return &ContractionHierarchy{
		g:         g,
		order:     d.Order,
		arcFrom:   d.ArcFrom,
		arcTo:     d.ArcTo,
		arcWeight: d.ArcWeight,
		arcMid:    d.ArcMid,
		arcEdge:   d.ArcEdge,
		upStart:   d.UpStart,
		upArcs:    d.UpArcs,
		downStart: d.DownStart,
		downArcs:  d.DownArcs,
		idxKeys:   d.IdxKeys,
		idxVals:   d.IdxVals,
	}
}

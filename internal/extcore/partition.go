package extcore

import (
	"trikcore/internal/graph"
)

// partition is one vertex range and the contiguous edge-id range it
// owns. Edge ids are assigned lexicographically by (lower endpoint,
// upper endpoint), so every edge whose lower endpoint falls in
// [vLo, vHi) has its id in [eLo, eHi) — ownership needs no lookup
// structure beyond the range bounds.
type partition struct {
	vLo, vHi int32
	eLo, eHi int32
}

// vertexCost is the planning bound on the resident bytes vertex u
// contributes to its partition's activation: 8 bytes per owned edge
// (support + worst-case peel queue) and 8 bytes per adjacency entry
// (the packed live row, before any edge dies).
func vertexCost(owned, rowLen int32) int64 {
	return int64(owned)*8 + int64(rowLen)*8
}

// partitionOverhead is the fixed per-partition resident cost charged at
// planning time (row offsets and slice headers).
const partitionOverhead = 1 << 10

// planPartitions cuts the vertex range into partitions whose planned
// activation cost fits budget. A non-positive budget, or one the whole
// graph fits under, yields a single partition (the in-memory path). A
// single vertex whose cost alone exceeds the budget still gets its own
// partition: vertex ranges are the finest ownership unit, so the budget
// is honored up to the largest single row (documented in DESIGN.md §5g).
func planPartitions(s *graph.Static, budget int64) []partition {
	n := s.NumVertices()
	m := s.NumEdges()
	if n == 0 {
		return []partition{{}}
	}
	ves := vertexEdgeStarts(s)
	if budget <= 0 {
		return []partition{{vLo: 0, vHi: int32(n), eLo: 0, eHi: int32(m)}} //trikcheck:checked frozen views bound n, m below 2^31
	}
	var parts []partition
	cur := partition{}
	cost := int64(partitionOverhead)
	for u := 0; u < n; u++ {
		owned := ves[u+1] - ves[u]
		rowLen := int32(s.Degree(int32(u))) //trikcheck:checked frozen views bound n, m below 2^31
		c := vertexCost(owned, rowLen)
		if cost+c > budget && cur.vHi > cur.vLo {
			parts = append(parts, cur)
			cur = partition{vLo: cur.vHi, vHi: cur.vHi, eLo: cur.eHi, eHi: cur.eHi}
			cost = partitionOverhead
		}
		cur.vHi = int32(u + 1) //trikcheck:checked frozen views bound n, m below 2^31
		cur.eHi = ves[u+1]
		cost += c
	}
	parts = append(parts, cur)
	return parts
}

// vertexEdgeStarts returns, per dense vertex u, the id of the first
// edge whose lower endpoint is ≥ u (length n+1). One sequential scan of
// the lexicographically sorted edge table — on a mapped view this is the
// only full read the planner performs.
func vertexEdgeStarts(s *graph.Static) []int32 {
	n := s.NumVertices()
	ves := make([]int32, n+1)
	for i := int32(0); int(i) < s.NumEdges(); i++ {
		u, _ := s.Endpoints(i)
		ves[u+1] = i + 1
	}
	for u := 0; u < n; u++ {
		if ves[u+1] < ves[u] {
			ves[u+1] = ves[u]
		}
	}
	return ves
}

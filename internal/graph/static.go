package graph

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// Static is an immutable, flat CSR view of a Graph optimized for bulk
// algorithms. Vertices are relabeled to dense positions 0..N-1 and the
// adjacency of all vertices lives in one shared neighbor array, sorted
// per row, enabling cache-friendly iteration and merge-based
// common-neighbor intersection. Edges carry dense indices 0..M-1 so
// per-edge algorithm state can live in flat slices; the AdjEdgeID array,
// parallel to AdjNbr, lets the triangle kernel hand those indices back
// without any lookup structure.
//
// Edge ids are assigned in lexicographic (u, v) order of dense endpoint
// pairs with u < v, which (because dense positions preserve the sorted
// order of original ids) is also the order Graph.Edges returns.
type Static struct {
	// OrigID maps a dense position back to the original vertex id.
	OrigID []Vertex
	// Pos maps an original vertex id to its dense position.
	Pos map[Vertex]int32
	// RowPtr has N+1 entries; the neighbors of dense vertex u occupy
	// AdjNbr[RowPtr[u]:RowPtr[u+1]], sorted ascending.
	RowPtr []int32
	// AdjNbr holds all adjacency rows concatenated (2M entries).
	AdjNbr []int32
	// AdjEdgeID is parallel to AdjNbr: AdjEdgeID[p] is the dense edge id
	// of the edge between the row's vertex and AdjNbr[p].
	AdjEdgeID []int32
	// EdgeU and EdgeV hold the endpoints (dense positions, EdgeU < EdgeV)
	// of edge i.
	EdgeU, EdgeV []int32
	// OutPtr/OutNbr/OutEdgeID are the degree-oriented half of the
	// adjacency: OutNbr[OutPtr[u]:OutPtr[u+1]] holds, sorted, the
	// neighbors of u ranked above it (by degree, ties by position), with
	// OutEdgeID parallel. Every triangle appears exactly once as an edge
	// {u, v} plus a common out-neighbor of u and v, which is what makes
	// once-per-triangle listing (ForEachOrientedTriangle) cheap: oriented
	// rows are bounded by O(√M) on any graph.
	OutPtr, OutNbr, OutEdgeID []int32
}

// freezeBlock is the vertex-block granularity of the parallel CSR build;
// small enough to balance power-law rows, large enough to amortize the
// atomic fetch.
const freezeBlock = 256

// FreezeStatic builds a Static view of g. The view shares nothing with g;
// later mutation of g does not affect it. Row filling, sorting and edge-id
// assignment run in parallel over vertex blocks.
func FreezeStatic(g *Graph) *Static {
	verts := g.Vertices()
	n := len(verts)
	m := g.NumEdges()
	// Every CSR index — vertex positions, edge ids and the 2M adjacency
	// offsets — is an int32. Refuse graphs that would overflow instead of
	// silently truncating; the //trikcheck:checked annotations on the
	// int32 narrowings below all cite this guard.
	if n >= math.MaxInt32 {
		panic("graph: FreezeStatic vertex count exceeds int32 capacity")
	}
	if m > math.MaxInt32/2 {
		panic("graph: FreezeStatic edge count exceeds int32 capacity")
	}
	s := &Static{
		OrigID: verts,
		Pos:    make(map[Vertex]int32, n),
		RowPtr: make([]int32, n+1),
	}
	for i, v := range verts {
		s.Pos[v] = int32(i) //trikcheck:checked i < n, guarded above
	}
	for i, v := range verts {
		s.RowPtr[i+1] = s.RowPtr[i] + int32(g.Degree(v)) //trikcheck:checked degree ≤ 2m, guarded above
	}
	s.AdjNbr = make([]int32, 2*m)
	s.AdjEdgeID = make([]int32, 2*m)
	s.EdgeU = make([]int32, m)
	s.EdgeV = make([]int32, m)

	// Pass 1: fill each row with dense neighbor positions and sort it.
	// Concurrent reads of g's maps are safe.
	parallelBlocks(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := s.AdjNbr[s.RowPtr[i]:s.RowPtr[i+1]]
			k := 0
			g.ForEachNeighbor(verts[i], func(w Vertex) bool {
				row[k] = s.Pos[w]
				k++
				return true
			})
			slices.Sort(row)
		}
	})

	// edgeStart[u] is the id of the first edge whose lower endpoint is u:
	// count each row's upper neighbors in parallel, then prefix-sum.
	edgeStart := make([]int32, n+1)
	parallelBlocks(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := s.AdjNbr[s.RowPtr[i]:s.RowPtr[i+1]]
			split, _ := slices.BinarySearch(row, int32(i)) //trikcheck:checked i < n, guarded above
			edgeStart[i+1] = int32(len(row) - split)       //trikcheck:checked row lengths sum to 2m, guarded above
		}
	})
	for i := 0; i < n; i++ {
		edgeStart[i+1] += edgeStart[i]
	}

	// Pass 2: assign edge ids. Entries w > u in row u get consecutive ids
	// from edgeStart[u] (and define EdgeU/EdgeV); entries w < u mirror the
	// id assigned in row w, recovered by ranking u within that row. Each
	// worker writes only its own rows' AdjEdgeID entries and the EdgeU/V
	// slots its rows own, so the passes are data-race free.
	parallelBlocks(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			u := int32(i) //trikcheck:checked i < n, guarded above
			base := s.RowPtr[i]
			row := s.AdjNbr[base:s.RowPtr[i+1]]
			split, _ := slices.BinarySearch(row, u)
			for k, w := range row {
				if w > u {
					id := edgeStart[i] + int32(k-split) //trikcheck:checked k < len(row) ≤ 2m, guarded above
					s.AdjEdgeID[base+int32(k)] = id     //trikcheck:checked k < len(row) ≤ 2m, guarded above
					s.EdgeU[id] = u
					s.EdgeV[id] = w
				} else {
					wrow := s.AdjNbr[s.RowPtr[w]:s.RowPtr[w+1]]
					wsplit, _ := slices.BinarySearch(wrow, w)
					pos, _ := slices.BinarySearch(wrow, u)
					s.AdjEdgeID[base+int32(k)] = edgeStart[w] + int32(pos-wsplit) //trikcheck:checked indices bounded by 2m, guarded above
				}
			}
		}
	})

	// Pass 3: the oriented half.
	s.buildOriented()
	return s
}

// buildOriented fills the degree-oriented half (OutPtr/OutNbr/OutEdgeID)
// from the already-built symmetric CSR arrays: count each row's
// higher-ranked neighbors, prefix-sum, then filter the rows down. Shared
// by FreezeStatic and Dense.Freeze; both bound the vertex and edge counts
// to int32 range before calling, which the //trikcheck:checked
// annotations below cite.
func (s *Static) buildOriented() {
	n := s.NumVertices()
	m := s.NumEdges()
	s.OutPtr = make([]int32, n+1)
	s.OutNbr = make([]int32, m)
	s.OutEdgeID = make([]int32, m)
	s.fillOriented(s.OutPtr, s.OutNbr, s.OutEdgeID)
}

// fillOriented computes the oriented half into caller-provided arrays
// (len n+1, m, m) from the symmetric CSR arrays, which must already be
// filled. The mapped-file builder aims it at mmap-backed storage;
// buildOriented aims it at fresh heap slices. It writes only through
// its parameters, never through s.
func (s *Static) fillOriented(outPtr, outNbr, outEdgeID []int32) {
	n := s.NumVertices()
	parallelBlocks(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			u := int32(i) //trikcheck:checked i < n, guarded by the caller's freeze guard
			c := int32(0)
			for _, w := range s.Neighbors(u) {
				if s.rankLess(u, w) {
					c++
				}
			}
			outPtr[i+1] = c
		}
	})
	outPtr[0] = 0
	for i := 0; i < n; i++ {
		outPtr[i+1] += outPtr[i]
	}
	parallelBlocks(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			u := int32(i) //trikcheck:checked i < n, guarded by the caller's freeze guard
			base := s.RowPtr[i]
			p := outPtr[i]
			for k, w := range s.Neighbors(u) {
				if s.rankLess(u, w) {
					outNbr[p] = w
					outEdgeID[p] = s.AdjEdgeID[base+int32(k)] //trikcheck:checked k < len(row) ≤ 2m, guarded by the caller's freeze guard
					p++
				}
			}
		}
	})
}

// rankLess is the degree orientation: u ranks below w when it has smaller
// degree, ties broken by dense position. Orienting every edge from lower
// to higher rank makes each triangle the out-wedge of exactly one edge.
func (s *Static) rankLess(u, w int32) bool {
	du, dw := s.RowPtr[u+1]-s.RowPtr[u], s.RowPtr[w+1]-s.RowPtr[w]
	if du != dw {
		return du < dw
	}
	return u < w
}

// parallelBlocks runs fn over [0, n) split into fixed-size blocks handed
// out through an atomic counter, so uneven (power-law) block costs
// self-balance across GOMAXPROCS workers. Small inputs run inline.
func parallelBlocks(n int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers <= 1 || n < 4*freezeBlock {
		fn(0, n)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(freezeBlock)) - freezeBlock
				if lo >= n {
					return
				}
				hi := lo + freezeBlock
				if hi > n {
					hi = n
				}
				fn(lo, hi)
			}
		}()
	}
	wg.Wait()
}

// NumVertices returns the number of vertices in the view.
func (s *Static) NumVertices() int { return len(s.OrigID) }

// NumEdges returns the number of edges in the view.
func (s *Static) NumEdges() int { return len(s.EdgeU) }

// SizeBytes estimates the heap footprint of the view's flat arrays and
// intern table — the number a memory gauge should report for a published
// snapshot. It is O(1): every component's size is arithmetic over slice
// lengths (the Pos entries are costed at key+value+bucket overhead).
func (s *Static) SizeBytes() int64 {
	int32Len := len(s.RowPtr) + len(s.AdjNbr) + len(s.AdjEdgeID) +
		len(s.EdgeU) + len(s.EdgeV) +
		len(s.OutPtr) + len(s.OutNbr) + len(s.OutEdgeID)
	return int64(int32Len)*4 + int64(len(s.OrigID))*8 + int64(len(s.Pos))*16
}

// Neighbors returns the sorted dense neighbor row of dense position u.
// The slice aliases the view's storage and must not be modified.
func (s *Static) Neighbors(u int32) []int32 {
	return s.AdjNbr[s.RowPtr[u]:s.RowPtr[u+1]]
}

// EdgeIndex returns the dense index of the edge between dense positions u
// and v, or -1 if no such edge exists, by binary search over the smaller
// of the two adjacency rows.
func (s *Static) EdgeIndex(u, v int32) int32 {
	if s.RowPtr[u+1]-s.RowPtr[u] > s.RowPtr[v+1]-s.RowPtr[v] {
		u, v = v, u
	}
	base := s.RowPtr[u]
	row := s.AdjNbr[base:s.RowPtr[u+1]]
	if j, ok := slices.BinarySearch(row, v); ok {
		return s.AdjEdgeID[base+int32(j)] //trikcheck:checked j < len(row) ≤ 2m, bounded at freeze
	}
	return -1
}

// EdgeOf returns the dense index of edge e, given over original vertex
// ids, or -1 if e is not an edge of the view.
func (s *Static) EdgeOf(e Edge) int32 {
	u, okU := s.Pos[e.U]
	v, okV := s.Pos[e.V]
	if !okU || !okV {
		return -1
	}
	return s.EdgeIndex(u, v)
}

// EdgeAt returns edge i as a canonical Edge over original vertex ids.
func (s *Static) EdgeAt(i int32) Edge {
	return NewEdge(s.OrigID[s.EdgeU[i]], s.OrigID[s.EdgeV[i]])
}

// ForEachEdgeID calls fn for every edge index in ascending order — all
// of 0..NumEdges-1, since a frozen view has no free slots. If fn
// returns false the iteration stops.
func (s *Static) ForEachEdgeID(fn func(i int32) bool) {
	for i := range s.EdgeU {
		if !fn(int32(i)) { //trikcheck:checked i < m, bounded to int32 at freeze
			return
		}
	}
}

// Degree returns the degree of the vertex at dense position u.
func (s *Static) Degree(u int32) int { return int(s.RowPtr[u+1] - s.RowPtr[u]) }

// Endpoints returns the dense endpoints (u < v) of edge i.
func (s *Static) Endpoints(i int32) (int32, int32) { return s.EdgeU[i], s.EdgeV[i] }

// Row returns the sorted dense neighbor row of dense position u together
// with the parallel edge-id row. Both slices alias the view's storage
// and must not be modified.
func (s *Static) Row(u int32) (nbr, eid []int32) {
	lo, hi := s.RowPtr[u], s.RowPtr[u+1]
	return s.AdjNbr[lo:hi], s.AdjEdgeID[lo:hi]
}

// ForEachCommonNeighbor calls fn for each common neighbor (dense position)
// of dense positions u and v, in ascending order, using a linear merge of
// the two sorted adjacency rows. If fn returns false the iteration stops.
func (s *Static) ForEachCommonNeighbor(u, v int32, fn func(w int32) bool) {
	i, iEnd := s.RowPtr[u], s.RowPtr[u+1]
	j, jEnd := s.RowPtr[v], s.RowPtr[v+1]
	a := s.AdjNbr
	for i < iEnd && j < jEnd {
		x, y := a[i], a[j]
		switch {
		case x < y:
			i++
		case x > y:
			j++
		default:
			if !fn(x) {
				return
			}
			i++
			j++
		}
	}
}

// ForEachTriangleEdge calls fn for each triangle {u, v, w} on the edge
// between dense positions u and v, passing the third vertex w (ascending)
// and the dense edge ids e1 = {u, w} and e2 = {v, w} read directly from
// the AdjEdgeID array — the map-free kernel of Algorithm 1. If fn returns
// false the iteration stops.
func (s *Static) ForEachTriangleEdge(u, v int32, fn func(w, e1, e2 int32) bool) {
	i, iEnd := s.RowPtr[u], s.RowPtr[u+1]
	j, jEnd := s.RowPtr[v], s.RowPtr[v+1]
	a, id := s.AdjNbr, s.AdjEdgeID
	for i < iEnd && j < jEnd {
		x, y := a[i], a[j]
		switch {
		case x < y:
			i++
		case x > y:
			j++
		default:
			if !fn(x, id[i], id[j]) {
				return
			}
			i++
			j++
		}
	}
}

// ForEachTriangleOn is ForEachTriangleEdge over the endpoints of edge i.
func (s *Static) ForEachTriangleOn(i int32, fn func(w, e1, e2 int32) bool) {
	s.ForEachTriangleEdge(s.EdgeU[i], s.EdgeV[i], fn)
}

// ForEachOrientedTriangle calls fn for each triangle whose two
// lowest-ranked vertices are the endpoints of edge i, passing the dense
// edge ids of the triangle's other two edges. Across all edges this
// yields every triangle of the graph exactly once — the once-per-triangle
// listing that bulk support computation uses to avoid visiting each
// triangle three times. If fn returns false the iteration stops.
func (s *Static) ForEachOrientedTriangle(i int32, fn func(e1, e2 int32) bool) {
	u, v := s.EdgeU[i], s.EdgeV[i]
	p, pEnd := s.OutPtr[u], s.OutPtr[u+1]
	q, qEnd := s.OutPtr[v], s.OutPtr[v+1]
	a, id := s.OutNbr, s.OutEdgeID
	for p < pEnd && q < qEnd {
		x, y := a[p], a[q]
		switch {
		case x < y:
			p++
		case x > y:
			q++
		default:
			if !fn(id[p], id[q]) {
				return
			}
			p++
			q++
		}
	}
}

// Support returns the number of triangles containing edge i.
func (s *Static) Support(i int32) int {
	return s.countCommon(s.EdgeU[i], s.EdgeV[i])
}

// countCommon counts |N(u) ∩ N(v)| over the sorted rows, iterating the
// smaller row first. When the rows are badly skewed (power-law hubs) it
// binary-searches the larger row per element instead of merging, turning
// O(d_u + d_v) into O(d_min · log d_max).
func (s *Static) countCommon(u, v int32) int {
	a, b := s.Neighbors(u), s.Neighbors(v)
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return 0
	}
	n := 0
	if len(b) >= 16*len(a) {
		for _, w := range a {
			if _, ok := slices.BinarySearch(b, w); ok {
				n++
			}
		}
		return n
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		switch {
		case x < y:
			i++
		case x > y:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// Materialize builds a standalone mutable Graph holding the same
// vertices and edges as the view. It shares nothing with the view, so
// it outlives a mapped file's Close.
func (s *Static) Materialize() *Graph {
	g := NewWithCapacity(s.NumVertices())
	for _, v := range s.OrigID {
		g.AddVertex(v)
	}
	for i := range s.EdgeU {
		g.AddEdge(s.OrigID[s.EdgeU[i]], s.OrigID[s.EdgeV[i]])
	}
	return g
}

// TriangleCount returns the total number of triangles in the graph using
// the oriented listing, which touches each triangle once instead of
// summing per-edge supports (three visits per triangle).
func (s *Static) TriangleCount() int64 {
	var sum int64
	for i := range s.EdgeU {
		u, v := s.EdgeU[i], s.EdgeV[i]
		p, pEnd := s.OutPtr[u], s.OutPtr[u+1]
		q, qEnd := s.OutPtr[v], s.OutPtr[v+1]
		a := s.OutNbr
		for p < pEnd && q < qEnd {
			x, y := a[p], a[q]
			switch {
			case x < y:
				p++
			case x > y:
				q++
			default:
				sum++
				p++
				q++
			}
		}
	}
	return sum
}

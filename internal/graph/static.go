package graph

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// Static is an immutable CSR view of a graph optimized for bulk
// algorithms. Vertices are relabeled to dense positions 0..N-1 and edges
// carry dense ids 0..M-1, so per-edge algorithm state can live in flat
// slices. Each vertex has a sorted neighbor row with a parallel edge-id
// row, which lets the triangle kernels hand edge ids back from a
// common-neighbor merge without any lookup structure, plus a
// degree-oriented out-row (ForEachOrientedTriangle).
//
// Storage is tables of immutable chunks, so consecutive views of an
// evolving graph can share it: rows live in blocks of blockRows
// consecutive positions, each block holding its rows' neighbor and
// edge-id rows, and the edge endpoint table lives in pages of pageEdges
// ids. No chunk is written after its view is built; Dense.Freeze builds
// each view from the previous one and replaces only the chunks that
// changed. The flat builders (FreezeStatic, OpenMapped) point every chunk
// into one flat array per kind, so they stay zero-copy.
//
// The out-rows are one chunk over all positions, built by fillOriented
// from the rows. The flat builders store it; a view frozen from a Dense
// derives it once, on first use, so a publication pays nothing for an
// orientation its readers may never list.
//
// Views from the flat builders keep OrigID ascending and assign edge ids
// in lexicographic (u, v) order of positions, which is also the order
// Graph.Edges returns. Views frozen from a Dense number vertices in slot
// order and edges in no particular order; consumers must not assume
// lexicographic ids there.
type Static struct {
	// OrigID maps a dense position back to the original vertex id. It is
	// read-only.
	OrigID []Vertex
	// byID lists the original ids in ascending order and byIDPos their
	// positions: the PosOf index of views whose OrigID is not ascending.
	// Both are nil when OrigID itself is ascending.
	byID    []Vertex
	byIDPos []int32
	m       int
	// rows[b] holds block b's neighbor rows.
	rows []rowChunk
	// oriented returns the out-rows: row u of the chunk is u's neighbors
	// ranked above it (rankLess), sorted, with the parallel edge ids. It
	// is safe for concurrent use, like the rest of the view.
	oriented func() *rowChunk
	// edgeU[p][k] and edgeV[p][k] are the endpoints (positions, u < v)
	// of edge p*pageEdges + k.
	edgeU, edgeV [][]int32
}

// Chunk sizes. An 8+8 edit of a power-law graph touches a few dozen
// vertices, many of them hubs, so small blocks keep the re-frozen share
// of the adjacency small; blocks much smaller than this make the block
// table, which every freeze copies, dominate instead. DESIGN.md §6
// records the measurements behind both values.
const (
	blockShift = 4
	blockRows  = 1 << blockShift
	blockMask  = blockRows - 1
	pageShift  = 9
	pageEdges  = 1 << pageShift
	pageMask   = pageEdges - 1
)

// rowChunk holds the neighbor rows of the blockRows consecutive
// positions of a block, or a view's out-rows: row i is
// nbr[ptr[i]:ptr[i+1]], sorted ascending, with the edge ids at the same
// offsets of eid. A flat-built chunk's slices are windows on the view's
// flat arrays (ptr a window of the row offsets, nbr the whole neighbor
// array); a chunk built by Dense.Freeze owns one allocation. The chunk
// table holds values, not pointers, so a kernel reaches a row with one
// load less.
type rowChunk struct {
	ptr, nbr, eid []int32
}

// freezeBlock is the vertex-block granularity of the parallel CSR build;
// small enough to balance power-law rows, large enough to amortize the
// atomic fetch.
const freezeBlock = 256

// FreezeStatic builds a Static view of g. The view shares nothing with g;
// later mutation of g does not affect it. Positions ascend by vertex id
// and edge ids are lexicographic whatever g's slot order: the view reads
// g's rows through a slot → position rank array. Row filling, sorting and
// edge-id assignment run in parallel over vertex blocks.
func FreezeStatic(g *Graph) *Static {
	d := &g.d
	n, m := d.nv, d.ne
	// Every CSR index — vertex positions, edge ids and the 2M adjacency
	// offsets — is an int32. Refuse graphs that would overflow instead of
	// silently truncating; the //trikcheck:checked annotations on the
	// int32 narrowings below all cite this guard.
	if m > math.MaxInt32/2 {
		panic("graph: FreezeStatic edge count exceeds int32 capacity")
	}
	// slotAt lists the live slots by ascending id. Bulk-built graphs and
	// graphs grown in id order have that order, so ranking keeps rows sorted.
	slotAt := make([]int32, 0, n)
	for p, live := range d.vlive {
		if live {
			slotAt = append(slotAt, int32(p)) //trikcheck:checked p indexes vlive, bounded to int32 by Intern
		}
	}
	byID := func(a, b int32) int { return int(d.orig[a]) - int(d.orig[b]) }
	inOrder := slices.IsSortedFunc(slotAt, byID)
	if !inOrder {
		slices.SortFunc(slotAt, byID)
	}
	rank := make([]int32, len(d.orig))
	orig := make([]Vertex, n)
	rowPtr := make([]int32, n+1)
	for i, p := range slotAt {
		rank[p] = int32(i) //trikcheck:checked i < n, bounded to int32 by Intern
		orig[i] = d.orig[p]
		rowPtr[i+1] = rowPtr[i] + int32(len(d.rows[p])) //trikcheck:checked degree ≤ 2m, guarded above
	}
	adjNbr := make([]int32, 2*m)
	parallelBlocks(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := adjNbr[rowPtr[i]:rowPtr[i+1]]
			for k, packed := range d.rows[slotAt[i]] {
				row[k] = rank[packed>>32]
			}
			if !inOrder {
				slices.Sort(row)
			}
		}
	})
	f := flatCSR{
		orig: orig, rowPtr: rowPtr, adjNbr: adjNbr, adjEID: make([]int32, 2*m),
		edgeU: make([]int32, m), edgeV: make([]int32, m),
		outPtr: make([]int32, n+1), outNbr: make([]int32, m), outEID: make([]int32, m),
	}
	f.fillEdgeIDs()
	f.fillOriented()
	return f.static()
}

// flatCSR is a view's storage as nine flat arrays: row offsets (n+1),
// neighbor and edge-id rows (2m), endpoints (m), out-row offsets (n+1),
// out neighbors and out edge ids (m), and the ascending original ids.
// It is FreezeStatic's build layout and the mapped file's section layout.
type flatCSR struct {
	orig                   []Vertex
	rowPtr, adjNbr, adjEID []int32
	edgeU, edgeV           []int32
	outPtr, outNbr, outEID []int32
}

// static wraps f as a view whose chunks are windows on f's arrays,
// copying nothing.
func (f flatCSR) static() *Static {
	n, m := len(f.orig), len(f.edgeU)
	rows := make([]rowChunk, (n+blockMask)>>blockShift)
	for b := range rows {
		lo, hi := b<<blockShift, min((b+1)<<blockShift, n)
		rows[b] = rowChunk{ptr: f.rowPtr[lo : hi+1], nbr: f.adjNbr, eid: f.adjEID}
	}
	out := &rowChunk{ptr: f.outPtr, nbr: f.outNbr, eid: f.outEID}
	edgeU, edgeV := make([][]int32, (m+pageMask)>>pageShift), make([][]int32, (m+pageMask)>>pageShift)
	for p := range edgeU {
		lo, hi := p<<pageShift, min((p+1)<<pageShift, m)
		edgeU[p], edgeV[p] = f.edgeU[lo:hi], f.edgeV[lo:hi]
	}
	return &Static{
		OrigID: f.orig, m: m, rows: rows, edgeU: edgeU, edgeV: edgeV,
		oriented: func() *rowChunk { return out },
	}
}

// flatten writes the view into f, whose arrays are sized for it: the
// inverse of flatCSR.static, for a view of any origin. It copies the
// ids, rows and endpoints and builds the oriented half from the rows, so
// every view of a graph numbered alike flattens to the same arrays.
func (s *Static) flatten(f flatCSR) {
	copy(f.orig, s.OrigID)
	f.copyRows(s.rows)
	for i := range f.edgeU {
		f.edgeU[i], f.edgeV[i] = s.Endpoints(int32(i)) //trikcheck:checked i < m, bounded to int32 at freeze
	}
	f.fillOriented()
}

// flatNumbered reports whether s numbers vertices by ascending id and
// edges in lexicographic order of their endpoint positions, as the flat
// builders do.
func (s *Static) flatNumbered() bool {
	pu, pv := int32(-1), int32(-1)
	for i := 0; i < s.m; i++ {
		u, v := s.Endpoints(int32(i)) //trikcheck:checked i < m, bounded to int32 at freeze
		if u < pu || (u == pu && v <= pv) {
			return false
		}
		pu, pv = u, v
	}
	return slices.IsSorted(s.OrigID) // ids are distinct, so sorted is ascending
}

// orientRows builds the out-rows of an n-vertex, m-edge view from its
// row blocks: the rows are flattened and fillOriented filters them, as
// the flat builders do.
func orientRows(rows []rowChunk, n, m int) *rowChunk {
	f := flatCSR{
		rowPtr: make([]int32, n+1), adjNbr: make([]int32, 2*m), adjEID: make([]int32, 2*m),
		outPtr: make([]int32, n+1), outNbr: make([]int32, m), outEID: make([]int32, m),
	}
	f.copyRows(rows)
	f.fillOriented()
	return &rowChunk{ptr: f.outPtr, nbr: f.outNbr, eid: f.outEID}
}

// copyRows writes the rows held in row blocks into f's row offsets,
// neighbor and edge-id arrays.
func (f flatCSR) copyRows(rows []rowChunk) {
	f.rowPtr[0] = 0
	for u := 0; u+1 < len(f.rowPtr); u++ {
		p := int32(u) //trikcheck:checked u < n, bounded to int32 at freeze
		nbr, eid := rows[p>>blockShift].row(p & blockMask)
		at := f.rowPtr[u]
		copy(f.adjNbr[at:], nbr)
		copy(f.adjEID[at:], eid)
		f.rowPtr[u+1] = at + int32(len(nbr)) //trikcheck:checked row lengths sum to 2m, bounded at freeze
	}
}

// row returns f's row u: sorted neighbor positions and the parallel edge
// ids.
func (f flatCSR) row(u int32) (nbr, eid []int32) {
	lo, hi := f.rowPtr[u], f.rowPtr[u+1]
	return f.adjNbr[lo:hi], f.adjEID[lo:hi]
}

// fillEdgeIDs assigns f's edge ids from its symmetric rows, in
// lexicographic (u, v) order of positions. Entries w > u in row u get
// consecutive ids from edgeStart[u] (and define edgeU/edgeV), in parallel
// over vertex blocks: each worker writes only its own rows' entries and
// the endpoint slots its rows own. The entries w < u then mirror those
// ids in one sequential walk: for w ascending, each upper entry u of row
// w fills row u's next lower slot, and row u's lower entries are exactly
// its neighbors below u in ascending order. FreezeStatic, the bulk Graph
// builder and the mapped-file builder all assign ids through it; callers
// bound the vertex and edge counts to int32 range first.
func (f flatCSR) fillEdgeIDs() {
	rowPtr, adjNbr := f.rowPtr, f.adjNbr
	n := len(rowPtr) - 1
	// split[u] is the offset of row u's first upper entry; edgeStart[u]
	// is the id of the first edge whose lower endpoint is u: count each
	// row's upper neighbors in parallel, then prefix-sum.
	split, edgeStart := make([]int32, n), make([]int32, n+1)
	parallelBlocks(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := adjNbr[rowPtr[i]:rowPtr[i+1]]
			k, _ := slices.BinarySearch(row, int32(i)) //trikcheck:checked i < n, guarded by the caller
			split[i] = rowPtr[i] + int32(k)            //trikcheck:checked k ≤ len(row) ≤ 2m, guarded by the caller
			edgeStart[i+1] = rowPtr[i+1] - split[i]
		}
	})
	for i := 0; i < n; i++ {
		edgeStart[i+1] += edgeStart[i]
	}
	parallelBlocks(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			u, id := int32(i), edgeStart[i] //trikcheck:checked i < n, guarded by the caller
			for k := split[i]; k < rowPtr[i+1]; k++ {
				f.adjEID[k] = id
				f.edgeU[id], f.edgeV[id] = u, adjNbr[k]
				id++
			}
		}
	})
	next := slices.Clone(rowPtr[:n]) // row u's next lower slot
	for w := 0; w < n; w++ {
		for k := split[w]; k < rowPtr[w+1]; k++ {
			u := adjNbr[k]
			f.adjEID[next[u]] = f.adjEID[k]
			next[u]++
		}
	}
}

// fillOriented computes f's degree-oriented half from its symmetric rows:
// count each row's higher-ranked neighbors, prefix-sum, then filter the
// rows down. It is the one builder of out-rows: FreezeStatic aims it at
// heap arrays, the mapped-file builders at the file's sections, and a
// view frozen from a Dense at the arrays it derives on first use.
// Callers bound the vertex and edge counts to int32 range first.
func (f flatCSR) fillOriented() {
	rowPtr, adjNbr := f.rowPtr, f.adjNbr
	n := len(rowPtr) - 1
	deg := func(u int32) int32 { return rowPtr[u+1] - rowPtr[u] }
	parallelBlocks(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			u := int32(i) //trikcheck:checked i < n, guarded by the caller's freeze guard
			c := int32(0)
			for _, w := range adjNbr[rowPtr[i]:rowPtr[i+1]] {
				if rankLess(u, w, deg(u), deg(w)) {
					c++
				}
			}
			f.outPtr[i+1] = c
		}
	})
	f.outPtr[0] = 0
	for i := 0; i < n; i++ {
		f.outPtr[i+1] += f.outPtr[i]
	}
	parallelBlocks(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			u := int32(i) //trikcheck:checked i < n, guarded by the caller's freeze guard
			p := f.outPtr[i]
			for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
				if w := adjNbr[k]; rankLess(u, w, deg(u), deg(w)) {
					f.outNbr[p] = w
					f.outEID[p] = f.adjEID[k]
					p++
				}
			}
		}
	})
}

// rankLess is the degree orientation: u (degree du) ranks below w (degree
// dw) when it has smaller degree, ties broken by dense position.
// Orienting every edge from lower to higher rank makes each triangle the
// out-wedge of exactly one edge, and bounds out-rows by O(√M).
func rankLess(u, w, du, dw int32) bool {
	if du != dw {
		return du < dw
	}
	return u < w
}

// parallelDo runs fn(0), …, fn(n-1) on one goroutine each and waits
// for them; a single call runs inline.
func parallelDo(n int, fn func(i int)) {
	if n == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for i := range n {
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
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
func (s *Static) NumEdges() int { return s.m }

// PosOf returns the dense position of original vertex v and whether v is
// a vertex of the view. It binary-searches OrigID where that is ascending
// (FreezeStatic, mapped files) and the view's sorted id index otherwise.
func (s *Static) PosOf(v Vertex) (int32, bool) {
	ids := s.OrigID
	if s.byID != nil {
		ids = s.byID
	}
	i, ok := slices.BinarySearch(ids, v)
	switch {
	case !ok:
		return -1, false
	case s.byID != nil:
		return s.byIDPos[i], true
	}
	return int32(i), true //trikcheck:checked i < n, which every builder bounds below 2^31
}

// Row returns the sorted dense neighbor row of dense position u together
// with the parallel edge-id row. Both slices alias the view's storage
// and must not be modified.
func (s *Static) Row(u int32) (nbr, eid []int32) {
	return s.rows[u>>blockShift].row(u & blockMask)
}

// row returns the chunk's row i.
func (c *rowChunk) row(i int32) (nbr, eid []int32) {
	lo, hi := c.ptr[i], c.ptr[i+1]
	return c.nbr[lo:hi], c.eid[lo:hi]
}

// Neighbors returns the sorted dense neighbor row of dense position u.
// The slice aliases the view's storage and must not be modified.
func (s *Static) Neighbors(u int32) []int32 {
	nbr, _ := s.Row(u)
	return nbr
}

// Degree returns the degree of the vertex at dense position u.
func (s *Static) Degree(u int32) int {
	c, i := &s.rows[u>>blockShift], u&blockMask
	return int(c.ptr[i+1] - c.ptr[i])
}

// Endpoints returns the dense endpoints (u < v) of edge i.
func (s *Static) Endpoints(i int32) (int32, int32) {
	p, k := i>>pageShift, i&pageMask
	return s.edgeU[p][k], s.edgeV[p][k]
}

// EdgeIndex returns the dense index of the edge between dense positions u
// and v, or -1 if no such edge exists, by binary search over the smaller
// of the two adjacency rows.
func (s *Static) EdgeIndex(u, v int32) int32 {
	nbr, eid := s.Row(u)
	if nv, ev := s.Row(v); len(nbr) > len(nv) {
		nbr, eid, v = nv, ev, u
	}
	if j, ok := slices.BinarySearch(nbr, v); ok {
		return eid[j]
	}
	return -1
}

// EdgeOf returns the dense index of edge e, given over original vertex
// ids, or -1 if e is not an edge of the view.
func (s *Static) EdgeOf(e Edge) int32 {
	u, okU := s.PosOf(e.U)
	v, okV := s.PosOf(e.V)
	if !okU || !okV {
		return -1
	}
	return s.EdgeIndex(u, v)
}

// EdgeAt returns edge i as a canonical Edge over original vertex ids.
func (s *Static) EdgeAt(i int32) Edge {
	u, v := s.Endpoints(i)
	return NewEdge(s.OrigID[u], s.OrigID[v])
}

// ForEachEdgeID calls fn for every edge index in ascending order — all
// of 0..NumEdges-1, since a frozen view has no free slots. If fn
// returns false the iteration stops.
func (s *Static) ForEachEdgeID(fn func(i int32) bool) {
	for i := 0; i < s.m; i++ {
		if !fn(int32(i)) { //trikcheck:checked i < m, bounded to int32 at freeze
			return
		}
	}
}

// ForEachCommonNeighbor calls fn for each common neighbor (dense position)
// of dense positions u and v, in ascending order, using a linear merge of
// the two sorted adjacency rows. If fn returns false the iteration stops.
func (s *Static) ForEachCommonNeighbor(u, v int32, fn func(w int32) bool) {
	a, b := s.Neighbors(u), s.Neighbors(v)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
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
// the edge-id rows — the map-free kernel of Algorithm 1. If fn returns
// false the iteration stops.
func (s *Static) ForEachTriangleEdge(u, v int32, fn func(w, e1, e2 int32) bool) {
	a, ida := s.Row(u)
	b, idb := s.Row(v)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		switch {
		case x < y:
			i++
		case x > y:
			j++
		default:
			if !fn(x, ida[i], idb[j]) {
				return
			}
			i++
			j++
		}
	}
}

// ForEachTriangleOn is ForEachTriangleEdge over the endpoints of edge i.
func (s *Static) ForEachTriangleOn(i int32, fn func(w, e1, e2 int32) bool) {
	u, v := s.Endpoints(i)
	s.ForEachTriangleEdge(u, v, fn)
}

// ForEachOrientedTriangle calls fn for each triangle whose two
// lowest-ranked vertices are the endpoints of edge i, passing the dense
// edge ids of the triangle's other two edges. Across all edges this
// yields every triangle of the graph exactly once — the once-per-triangle
// listing that bulk support computation uses to avoid visiting each
// triangle three times. If fn returns false the iteration stops.
func (s *Static) ForEachOrientedTriangle(i int32, fn func(e1, e2 int32) bool) {
	u, v := s.Endpoints(i)
	out := s.oriented()
	a, ida := out.row(u)
	b, idb := out.row(v)
	p, q := 0, 0
	for p < len(a) && q < len(b) {
		x, y := a[p], b[q]
		switch {
		case x < y:
			p++
		case x > y:
			q++
		default:
			if !fn(ida[p], idb[q]) {
				return
			}
			p++
			q++
		}
	}
}

// Support returns the number of triangles containing edge i.
func (s *Static) Support(i int32) int {
	u, v := s.Endpoints(i)
	return s.countCommon(u, v)
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
	return n + countMerge(a, b)
}

// countMerge counts the common entries of two sorted rows by linear merge.
func countMerge(a, b []int32) int {
	n, i, j := 0, 0, 0
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
// vertices and edges as the view, with the view's positions as its slots
// and the view's edge ids. It shares nothing with the view, so it
// outlives a mapped file's Close.
func (s *Static) Materialize() *Graph { return &Graph{d: *NewDenseFromStatic(s)} }

// TriangleCount returns the total number of triangles in the graph using
// the oriented listing, which touches each triangle once instead of
// summing per-edge supports (three visits per triangle): every edge sits
// in the out-row of exactly one endpoint, so merging each out-row with
// the out-rows of its members counts every triangle at its two
// lowest-ranked vertices.
func (s *Static) TriangleCount() int64 {
	var sum int64
	out := s.oriented()
	for u := 0; u < s.NumVertices(); u++ {
		ou, _ := out.row(int32(u)) //trikcheck:checked u < n, bounded to int32 at freeze
		for _, w := range ou {
			ow, _ := out.row(w)
			sum += int64(countMerge(ou, ow))
		}
	}
	return sum
}

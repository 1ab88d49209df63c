// Package graph provides the dynamic undirected graph substrate used by all
// triangle k-core algorithms in this repository.
//
// The central type is Graph, a mutable, undirected simple graph over int32
// vertex identifiers, stored as one sorted adjacency row per vertex (a
// Dense, the rows the dynamic engine runs on). Edge membership, insertion
// and deletion cost a vertex lookup plus a binary search of a row, and an
// update also shifts the row's tail; the triangle primitives
// (common-neighbor iteration, edge support) merge two sorted rows. Bulk
// inputs are built by sort-and-dedup instead of per-edge inserts.
//
// For read-mostly bulk algorithms (the static decomposition in
// internal/core), FreezeStatic converts a Graph into a compact
// array-based Static view with sorted adjacency, positional vertex ids and
// dense edge indexing.
package graph

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
)

// Vertex identifies a graph vertex. Identifiers are arbitrary non-negative
// int32 values supplied by the caller; they need not be contiguous.
type Vertex = int32

// Edge is an undirected edge in canonical form (U < V). Construct edges
// with NewEdge to guarantee canonical ordering; Edge values built directly
// must satisfy U < V or graph operations will misbehave.
type Edge struct {
	U, V Vertex
}

// NewEdge returns the canonical form of the undirected edge {u, v}.
// It panics if u == v: self-loops are not representable, and silently
// accepting one would corrupt triangle counts.
func NewEdge(u, v Vertex) Edge {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop on vertex %d", u))
	}
	if u > v {
		u, v = v, u
	}
	return Edge{U: u, V: v}
}

// Other returns the endpoint of e that is not v. It panics if v is not an
// endpoint of e.
func (e Edge) Other(v Vertex) Vertex {
	switch v {
	case e.U:
		return e.V
	case e.V:
		return e.U
	}
	panic(fmt.Sprintf("graph: vertex %d not an endpoint of edge %v", v, e))
}

// Has reports whether v is an endpoint of e.
func (e Edge) Has(v Vertex) bool { return e.U == v || e.V == v }

// String renders the edge as "u-v".
func (e Edge) String() string { return fmt.Sprintf("%d-%d", e.U, e.V) }

// Less orders edges lexicographically by (U, V).
func (e Edge) Less(o Edge) bool {
	if e.U != o.U {
		return e.U < o.U
	}
	return e.V < o.V
}

// compareEdges is the three-way form of Edge.Less for slices.SortFunc.
func compareEdges(a, b Edge) int {
	if a.U != b.U {
		return int(a.U) - int(b.U)
	}
	return int(a.V) - int(b.V)
}

// Triangle is an unordered vertex triple in canonical form (A < B < C).
type Triangle struct {
	A, B, C Vertex
}

// NewTriangle returns the canonical form of the triangle {a, b, c}.
// It panics if the vertices are not pairwise distinct.
func NewTriangle(a, b, c Vertex) Triangle {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	if a == b || b == c {
		panic("graph: degenerate triangle")
	}
	return Triangle{A: a, B: b, C: c}
}

// Edges returns the three edges of the triangle in canonical order.
func (t Triangle) Edges() [3]Edge {
	return [3]Edge{
		{U: t.A, V: t.B},
		{U: t.A, V: t.C},
		{U: t.B, V: t.C},
	}
}

// Has reports whether v is a vertex of t.
func (t Triangle) Has(v Vertex) bool { return t.A == v || t.B == v || t.C == v }

// HasEdge reports whether e is one of t's edges.
func (t Triangle) HasEdge(e Edge) bool {
	return t.Has(e.U) && t.Has(e.V)
}

// ThirdVertex returns the vertex of t that is not an endpoint of e.
// It panics if e is not an edge of t.
func (t Triangle) ThirdVertex(e Edge) Vertex {
	if !t.HasEdge(e) {
		panic(fmt.Sprintf("graph: edge %v not in triangle %v", e, t))
	}
	switch {
	case !e.Has(t.A):
		return t.A
	case !e.Has(t.B):
		return t.B
	default:
		return t.C
	}
}

// String renders the triangle as "(a,b,c)".
func (t Triangle) String() string { return fmt.Sprintf("(%d,%d,%d)", t.A, t.B, t.C) }

// Graph is a mutable undirected simple graph: a Dense whose edge ids it
// hides, its methods translating vertex ids through the Dense's index.
// The zero value is not usable; construct graphs with New, or in bulk with
// FromEdges, FromPairs or ReadEdgeList. Graph is not safe for concurrent
// mutation; concurrent reads are safe. ForEach* callbacks must not mutate
// g.
type Graph struct {
	d Dense
}

// New returns an empty graph.
func New() *Graph { return NewWithCapacity(0) }

// NewWithCapacity returns an empty graph with capacity hints for the number
// of vertices it is expected to hold.
func NewWithCapacity(vertices int) *Graph {
	return &Graph{d: Dense{pos: make(map[Vertex]int32, vertices)}}
}

// NumVertices returns the number of vertices currently in the graph.
func (g *Graph) NumVertices() int { return g.d.nv }

// NumEdges returns the number of edges currently in the graph.
func (g *Graph) NumEdges() int { return g.d.ne }

// HasVertex reports whether v is present.
func (g *Graph) HasVertex(v Vertex) bool { return g.d.HasVertex(v) }

// row returns v's packed adjacency row, nil when v is absent.
func (g *Graph) row(v Vertex) []int64 {
	if p, ok := g.d.pos[v]; ok {
		return g.d.rows[p]
	}
	return nil
}

// AddVertex ensures v is present (possibly isolated). It reports whether the
// vertex was newly added.
func (g *Graph) AddVertex(v Vertex) bool {
	_, added := g.d.intern(v)
	return added
}

// RemoveVertex removes v and all incident edges. It reports whether the
// vertex was present.
func (g *Graph) RemoveVertex(v Vertex) bool {
	for row := g.row(v); len(row) > 0; row = g.row(v) {
		g.d.removeEdge(int32(uint32(row[len(row)-1])))
	}
	return g.d.removeVertex(v)
}

// AddEdge inserts the undirected edge {u, v}, creating endpoints as needed.
// It reports whether the edge was newly added. It panics on self-loops.
func (g *Graph) AddEdge(u, v Vertex) bool {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop on vertex %d", u))
	}
	du, _ := g.d.intern(u)
	dv, _ := g.d.intern(v)
	_, added := g.d.addEdge(du, dv)
	return added
}

// AddEdgeE is AddEdge for a canonical Edge value.
func (g *Graph) AddEdgeE(e Edge) bool { return g.AddEdge(e.U, e.V) }

// RemoveEdge deletes the undirected edge {u, v} if present and reports
// whether it was removed. Endpoints are kept even if they become isolated.
func (g *Graph) RemoveEdge(u, v Vertex) bool {
	eid := g.d.EdgeIDV(u, v)
	if eid < 0 {
		return false
	}
	g.d.removeEdge(eid)
	return true
}

// RemoveEdgeE is RemoveEdge for a canonical Edge value.
func (g *Graph) RemoveEdgeE(e Edge) bool { return g.RemoveEdge(e.U, e.V) }

// HasEdge reports whether the undirected edge {u, v} is present.
func (g *Graph) HasEdge(u, v Vertex) bool { return g.d.HasEdgeV(u, v) }

// HasEdgeE is HasEdge for a canonical Edge value.
func (g *Graph) HasEdgeE(e Edge) bool { return g.HasEdge(e.U, e.V) }

// Degree returns the number of neighbors of v (0 if absent).
func (g *Graph) Degree(v Vertex) int { return len(g.row(v)) }

// ForEachNeighbor calls fn for every neighbor of v in unspecified order.
// If fn returns false the iteration stops early.
func (g *Graph) ForEachNeighbor(v Vertex, fn func(w Vertex) bool) {
	for _, packed := range g.row(v) {
		if !fn(g.d.orig[packed>>32]) {
			return
		}
	}
}

// NeighborsSorted returns the neighbors of v in ascending order.
func (g *Graph) NeighborsSorted(v Vertex) []Vertex {
	row := g.row(v)
	out := make([]Vertex, len(row))
	for k, packed := range row {
		out[k] = g.d.orig[packed>>32]
	}
	slices.Sort(out)
	return out
}

// Vertices returns all vertex identifiers in ascending order.
func (g *Graph) Vertices() []Vertex {
	out := make([]Vertex, 0, g.d.nv)
	g.ForEachVertex(func(v Vertex) bool {
		out = append(out, v)
		return true
	})
	slices.Sort(out)
	return out
}

// ForEachVertex calls fn for every vertex in unspecified order. If fn
// returns false the iteration stops early.
func (g *Graph) ForEachVertex(fn func(v Vertex) bool) {
	for p, v := range g.d.orig {
		if g.d.vlive[p] && !fn(v) {
			return
		}
	}
}

// Edges returns all edges in canonical form sorted by (U, V).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.d.ne)
	g.ForEachEdge(func(e Edge) bool {
		out = append(out, e)
		return true
	})
	slices.SortFunc(out, compareEdges)
	return out
}

// ForEachEdge calls fn for every edge in unspecified order. If fn returns
// false the iteration stops early.
func (g *Graph) ForEachEdge(fn func(e Edge) bool) {
	orig := g.d.orig
	for u, row := range g.d.rows {
		for _, packed := range row {
			if w := int32(packed >> 32); int32(u) < w { //trikcheck:checked u indexes rows, bounded to int32 by Intern
				if !fn(NewEdge(orig[u], orig[w])) {
					return
				}
			}
		}
	}
}

// ForEachCommonNeighbor calls fn for every common neighbor of u and v by
// merging their sorted rows. Order is unspecified. If fn returns false
// the iteration stops early.
func (g *Graph) ForEachCommonNeighbor(u, v Vertex, fn func(w Vertex) bool) {
	mergeRows(g.row(u), g.row(v), func(w, _, _ int32) bool { return fn(g.d.orig[w]) })
}

// CommonNeighbors returns the common neighbors of u and v in ascending
// order, or nil when they have none.
func (g *Graph) CommonNeighbors(u, v Vertex) []Vertex {
	var out []Vertex
	g.ForEachCommonNeighbor(u, v, func(w Vertex) bool {
		out = append(out, w)
		return true
	})
	slices.Sort(out)
	return out
}

// Support returns |N(u) ∩ N(v)|, the number of common neighbors of u and
// v, whether or not the edge {u, v} exists. On an edge it is the number
// of triangles containing the edge; it is 0 when u or v is absent.
func (g *Graph) Support(u, v Vertex) int {
	n := 0
	g.ForEachCommonNeighbor(u, v, func(Vertex) bool { n++; return true })
	return n
}

// SupportE is Support for a canonical Edge value.
func (g *Graph) SupportE(e Edge) int { return g.Support(e.U, e.V) }

// ForEachTriangleOn calls fn for every triangle containing the edge
// {u, v}. Order is unspecified. If fn returns false the iteration stops
// early.
func (g *Graph) ForEachTriangleOn(u, v Vertex, fn func(t Triangle) bool) {
	g.ForEachCommonNeighbor(u, v, func(w Vertex) bool {
		return fn(NewTriangle(u, v, w))
	})
}

// ForEachTriangleEdge calls fn for every triangle on the edge {u, v},
// passing the third vertex and the triangle's other two edges {u, w} and
// {v, w} in canonical form — the mutable-graph counterpart of
// Static.ForEachTriangleEdge. Order is unspecified. If fn returns false
// the iteration stops early.
func (g *Graph) ForEachTriangleEdge(u, v Vertex, fn func(w Vertex, e1, e2 Edge) bool) {
	g.ForEachCommonNeighbor(u, v, func(w Vertex) bool {
		return fn(w, NewEdge(u, w), NewEdge(v, w))
	})
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph { return &Graph{d: g.d.clone()} }

// VerticesOf returns the distinct endpoints of edges, sorted ascending.
func VerticesOf(edges []Edge) []Vertex {
	out := make([]Vertex, 0, 2*len(edges))
	for _, e := range edges {
		out = append(out, e.U, e.V)
	}
	slices.Sort(out)
	return slices.Clip(slices.Compact(out))
}

// FromEdges builds a graph from a list of edges; duplicate edges are
// ignored. It panics on self-loops.
func FromEdges(edges []Edge) *Graph {
	keys := make([]int64, 0, 2*len(edges))
	for _, e := range edges {
		keys = appendPair(keys, e.U, e.V)
	}
	return fromPairKeys(keys)
}

// FromPairs builds a graph from flat (u, v) pairs; duplicate edges are
// ignored. It panics if the slice has odd length or holds a self-loop.
func FromPairs(pairs ...Vertex) *Graph {
	if len(pairs)%2 != 0 {
		panic("graph: FromPairs needs an even number of vertices")
	}
	keys := make([]int64, 0, len(pairs))
	for i := 0; i < len(pairs); i += 2 {
		keys = appendPair(keys, pairs[i], pairs[i+1])
	}
	return fromPairKeys(keys)
}

// appendPair appends the keys of both directions of the edge {u, v}: u in
// the high half and v, sign bit flipped, in the low half, so int64 order
// is the (u, v) order of the ids. It panics on self-loops, as AddEdge
// does.
func appendPair(keys []int64, u, v Vertex) []int64 {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop on vertex %d", u))
	}
	return append(keys, int64(u)<<32|int64(uint32(v)^1<<31), int64(v)<<32|int64(uint32(u)^1<<31))
}

// fromPairKeys builds the graph whose edges appendPair encoded in keys,
// duplicates allowed: the sorted, deduplicated keys are the rows of a flat
// CSR over the ascending ids, numbered by the flat builders' edge-id pass.
// So slots follow id order and edge ids lexicographic order, the layout
// FreezeStatic produces. It reorders keys.
func fromPairKeys(keys []int64) *Graph {
	keys = slices.Compact(sortKeys(keys))
	if len(keys) >= math.MaxInt32 {
		panic("graph: edge count exceeds int32 capacity")
	}
	var orig []Vertex
	var rowPtr []int32
	for k, key := range keys {
		if u := Vertex(key >> 32); len(orig) == 0 || u != orig[len(orig)-1] { //trikcheck:checked the high half of a key is an int32 id
			orig = append(orig, u)
			rowPtr = append(rowPtr, int32(k)) //trikcheck:checked k < len(keys) < MaxInt32, guarded above
		}
	}
	rowPtr = append(rowPtr, int32(len(keys))) //trikcheck:checked guarded above
	pos := vertexIndex(orig)
	adjNbr := make([]int32, len(keys))
	parallelBlocks(len(orig), func(lo, hi int) {
		for k := rowPtr[lo]; k < rowPtr[hi]; k++ {
			adjNbr[k] = pos[Vertex(uint32(keys[k])^1<<31)] //trikcheck:checked the low half of a key is an int32 id
		}
	})
	m := len(keys) / 2
	f := flatCSR{
		orig: orig, rowPtr: rowPtr, adjNbr: adjNbr, adjEID: make([]int32, len(keys)),
		edgeU: make([]int32, m), edgeV: make([]int32, m),
	}
	f.fillEdgeIDs()
	return &Graph{d: *newDenseRows(orig, pos, f.edgeU, f.edgeV, f.row)}
}

// sortKeys sorts keys ascending with an LSD radix sort in unsigned
// order with the sign bit flipped, so negative keys (negative high ids,
// which FromEdges accepts) sort first. Its digits are keyBits-bit
// windows over the bits that vary among the keys only: each starts at
// the lowest varying bit the previous ones left, so keys over ids below
// 2^22 take four scatter passes. From parallelSortMin keys on, each
// pass runs on GOMAXPROCS workers (see sortKeysOn). It returns the
// sorted keys, in keys' array or in one scratch array of its length.
func sortKeys(keys []int64) []int64 {
	workers := 1
	if len(keys) >= parallelSortMin {
		workers = runtime.GOMAXPROCS(0)
	}
	return sortKeysOn(keys, workers)
}

// parallelSortMin is the key count below which sortKeys runs on one
// worker: smaller key sets were not faster on two (DESIGN.md §6 has the
// measurement).
const parallelSortMin = 1 << 16

// sortKeysOn is sortKeys on the given number of workers. Each pass
// gives every worker one contiguous range of its input: the worker
// counts its range's digits, the counts are prefix-summed in (digit
// value, worker) order, and the worker scatters its range in order. So
// each pass is stable and the output is the one-worker output.
func sortKeysOn(keys []int64, workers int) []int64 {
	if len(keys) < 2 {
		return keys
	}
	var varying uint64
	for _, k := range keys {
		varying |= uint64(k) ^ uint64(keys[0])
	}
	bound := func(w int) int { return len(keys) * w / workers }
	counts := make([][1 << keyBits]int, workers)
	src, dst := keys, make([]int64, len(keys))
	for sh := uint(0); sh < 64 && varying>>sh != 0; sh += keyBits {
		sh += uint(bits.TrailingZeros64(varying >> sh))
		parallelDo(workers, func(w int) {
			c := &counts[w]
			*c = [1 << keyBits]int{}
			for _, k := range src[bound(w):bound(w+1)] {
				c[keyDigit(k, sh)]++
			}
		})
		sum := 0
		for b := range 1 << keyBits {
			for w := range counts {
				counts[w][b], sum = sum, sum+counts[w][b]
			}
		}
		parallelDo(workers, func(w int) {
			next := &counts[w]
			for _, k := range src[bound(w):bound(w+1)] {
				b := keyDigit(k, sh)
				dst[next[b]] = k
				next[b]++
			}
		})
		src, dst = dst, src
	}
	return src
}

// keyDigit is the keyBits-bit digit of key k at bit sh, in sign-flipped
// unsigned order.
func keyDigit(k int64, sh uint) uint64 { return (uint64(k) ^ 1<<63) >> sh & (1<<keyBits - 1) }

// keyBits is sortKeys' digit width: 2^11 counters fit in cache while
// four digits cover the two varying halves of keys over ids below 2^22.
const keyBits = 11

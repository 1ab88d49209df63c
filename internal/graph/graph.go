// Package graph provides the dynamic undirected graph substrate used by all
// triangle k-core algorithms in this repository.
//
// The central type is Graph, a mutable, undirected simple graph over int32
// vertex identifiers. It supports O(1) expected-time edge insertion,
// deletion and membership queries, and exposes the triangle primitives
// (common-neighbor iteration, edge support) on which truss-style
// decompositions are built.
//
// For read-mostly bulk algorithms (the static decomposition in
// internal/core), FreezeStatic converts a Graph into a compact
// array-based Static view with sorted adjacency, positional vertex ids and
// dense edge indexing.
package graph

import (
	"fmt"
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

// Graph is a mutable undirected simple graph. The zero value is not usable;
// construct graphs with New. Graph is not safe for concurrent mutation;
// concurrent reads are safe.
type Graph struct {
	adj   map[Vertex]map[Vertex]struct{}
	edges int
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{adj: make(map[Vertex]map[Vertex]struct{})}
}

// NewWithCapacity returns an empty graph with capacity hints for the number
// of vertices it is expected to hold.
func NewWithCapacity(vertices int) *Graph {
	return &Graph{adj: make(map[Vertex]map[Vertex]struct{}, vertices)}
}

// NumVertices returns the number of vertices currently in the graph.
func (g *Graph) NumVertices() int { return len(g.adj) }

// NumEdges returns the number of edges currently in the graph.
func (g *Graph) NumEdges() int { return g.edges }

// HasVertex reports whether v is present.
func (g *Graph) HasVertex(v Vertex) bool {
	_, ok := g.adj[v]
	return ok
}

// AddVertex ensures v is present (possibly isolated). It reports whether the
// vertex was newly added.
func (g *Graph) AddVertex(v Vertex) bool {
	if _, ok := g.adj[v]; ok {
		return false
	}
	g.adj[v] = make(map[Vertex]struct{})
	return true
}

// RemoveVertex removes v and all incident edges. It reports whether the
// vertex was present.
func (g *Graph) RemoveVertex(v Vertex) bool {
	nbrs, ok := g.adj[v]
	if !ok {
		return false
	}
	for w := range nbrs {
		delete(g.adj[w], v)
		g.edges--
	}
	delete(g.adj, v)
	return true
}

// AddEdge inserts the undirected edge {u, v}, creating endpoints as needed.
// It reports whether the edge was newly added. It panics on self-loops.
func (g *Graph) AddEdge(u, v Vertex) bool {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop on vertex %d", u))
	}
	g.AddVertex(u)
	g.AddVertex(v)
	if _, ok := g.adj[u][v]; ok {
		return false
	}
	g.adj[u][v] = struct{}{}
	g.adj[v][u] = struct{}{}
	g.edges++
	return true
}

// AddEdgeE is AddEdge for a canonical Edge value.
func (g *Graph) AddEdgeE(e Edge) bool { return g.AddEdge(e.U, e.V) }

// RemoveEdge deletes the undirected edge {u, v} if present and reports
// whether it was removed. Endpoints are kept even if they become isolated.
func (g *Graph) RemoveEdge(u, v Vertex) bool {
	if _, ok := g.adj[u][v]; !ok {
		return false
	}
	delete(g.adj[u], v)
	delete(g.adj[v], u)
	g.edges--
	return true
}

// RemoveEdgeE is RemoveEdge for a canonical Edge value.
func (g *Graph) RemoveEdgeE(e Edge) bool { return g.RemoveEdge(e.U, e.V) }

// HasEdge reports whether the undirected edge {u, v} is present.
func (g *Graph) HasEdge(u, v Vertex) bool {
	_, ok := g.adj[u][v]
	return ok
}

// HasEdgeE is HasEdge for a canonical Edge value.
func (g *Graph) HasEdgeE(e Edge) bool { return g.HasEdge(e.U, e.V) }

// Degree returns the number of neighbors of v (0 if absent).
func (g *Graph) Degree(v Vertex) int { return len(g.adj[v]) }

// ForEachNeighbor calls fn for every neighbor of v in unspecified order.
// If fn returns false the iteration stops early.
func (g *Graph) ForEachNeighbor(v Vertex, fn func(w Vertex) bool) {
	for w := range g.adj[v] {
		if !fn(w) {
			return
		}
	}
}

// NeighborsSorted returns the neighbors of v in ascending order.
func (g *Graph) NeighborsSorted(v Vertex) []Vertex {
	nbrs := g.adj[v]
	out := make([]Vertex, 0, len(nbrs))
	for w := range nbrs {
		out = append(out, w)
	}
	slices.Sort(out)
	return out
}

// Vertices returns all vertex identifiers in ascending order.
func (g *Graph) Vertices() []Vertex {
	out := make([]Vertex, 0, len(g.adj))
	for v := range g.adj {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// ForEachVertex calls fn for every vertex in unspecified order. If fn
// returns false the iteration stops early.
func (g *Graph) ForEachVertex(fn func(v Vertex) bool) {
	for v := range g.adj {
		if !fn(v) {
			return
		}
	}
}

// Edges returns all edges in canonical form sorted by (U, V).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.edges)
	for u, nbrs := range g.adj {
		for v := range nbrs {
			if u < v {
				out = append(out, Edge{U: u, V: v})
			}
		}
	}
	slices.SortFunc(out, compareEdges)
	return out
}

// ForEachEdge calls fn for every edge in unspecified order. If fn returns
// false the iteration stops early.
func (g *Graph) ForEachEdge(fn func(e Edge) bool) {
	for u, nbrs := range g.adj {
		for v := range nbrs {
			if u < v {
				if !fn(Edge{U: u, V: v}) {
					return
				}
			}
		}
	}
}

// ForEachCommonNeighbor calls fn for every common neighbor of u and v,
// iterating over the smaller adjacency set. Order is unspecified. If fn
// returns false the iteration stops early.
func (g *Graph) ForEachCommonNeighbor(u, v Vertex, fn func(w Vertex) bool) {
	nu, nv := g.adj[u], g.adj[v]
	if len(nu) > len(nv) {
		nu, nv = nv, nu
	}
	for w := range nu {
		if _, ok := nv[w]; ok {
			if !fn(w) {
				return
			}
		}
	}
}

// CommonNeighbors returns the common neighbors of u and v in ascending
// order.
func (g *Graph) CommonNeighbors(u, v Vertex) []Vertex {
	var out []Vertex
	g.ForEachCommonNeighbor(u, v, func(w Vertex) bool {
		out = append(out, w)
		return true
	})
	slices.Sort(out)
	return out
}

// Support returns the number of triangles containing the edge {u, v},
// i.e. |N(u) ∩ N(v)|. It returns 0 if the edge is absent (the count is
// still the size of the common neighborhood of u and v if both exist).
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
func (g *Graph) Clone() *Graph {
	c := NewWithCapacity(len(g.adj))
	for v, nbrs := range g.adj {
		m := make(map[Vertex]struct{}, len(nbrs))
		for w := range nbrs {
			m[w] = struct{}{}
		}
		c.adj[v] = m
	}
	c.edges = g.edges
	return c
}

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
// ignored.
func FromEdges(edges []Edge) *Graph {
	g := New()
	for _, e := range edges {
		g.AddEdge(e.U, e.V)
	}
	return g
}

// FromPairs builds a graph from flat (u, v) pairs. It panics if the slice
// has odd length.
func FromPairs(pairs ...Vertex) *Graph {
	if len(pairs)%2 != 0 {
		panic("graph: FromPairs needs an even number of vertices")
	}
	g := New()
	for i := 0; i < len(pairs); i += 2 {
		g.AddEdge(pairs[i], pairs[i+1])
	}
	return g
}

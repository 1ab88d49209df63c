package core

import (
	"sort"

	"trikcore/internal/graph"
)

// CoreSubgraph returns the subgraph formed by all edges with κ ≥ k. By
// Claim 2 of the paper this subgraph is a Triangle K-Core with Triangle
// K-Core number at least k (every surviving edge keeps at least k
// triangles whose other edges also survive).
func (d *Decomposition) CoreSubgraph(k int32) *graph.Graph {
	sub := graph.New()
	for i, kv := range d.Kappa {
		if kv >= k {
			sub.AddEdgeE(d.S.EdgeAt(int32(i)))
		}
	}
	return sub
}

// TriangleGraph is the graph surface the κ-level queries walk: live
// dense edge ids, the external edge behind each, and the triangles
// through an edge. The queries pair it with κ indexed by the same ids,
// so they answer alike whichever peel or maintenance produced κ.
// *graph.Static satisfies it; the dynamic engine adapts its live
// substrate.
type TriangleGraph interface {
	// ForEachEdgeID calls fn for every live edge id.
	ForEachEdgeID(fn func(eid int32) bool)
	// EdgeAt returns live edge eid over external vertex ids.
	EdgeAt(eid int32) graph.Edge
	// ForEachTriangleOn calls fn for each triangle through edge eid,
	// passing the third vertex and the ids of the other two edges.
	ForEachTriangleOn(eid int32, fn func(w, e1, e2 int32) bool)
}

// MaxCoreOf returns the maximum Triangle K-Core associated with edge e
// (Definition 4) as the triangle-connected component of e within the
// subgraph of edges with κ ≥ κ(e). The boolean is false if e is not an
// edge of the decomposed graph.
//
// Restricting to the triangle-connected component keeps the result a
// coherent community around e rather than the union of all equally dense
// regions of the graph; the component is still a Triangle K-Core with
// number κ(e) and contains e, hence maximal for e.
func (d *Decomposition) MaxCoreOf(e graph.Edge) (*graph.Graph, bool) {
	eid := d.S.EdgeOf(e)
	if eid < 0 {
		return nil, false
	}
	return graph.FromEdges(MaxCore(d.S, d.Kappa, eid)), true
}

// Communities returns the triangle-connected components of the κ ≥ k
// subgraph, each as a sorted list of edges, ordered by first edge. These
// are the clique-like communities the density plots expose as plateaus.
func (d *Decomposition) Communities(k int32) [][]graph.Edge {
	return Communities(d.S, d.Kappa, k)
}

// MaxCore returns the maximum Triangle K-Core of edge eid of g under
// kappa — its triangle-connected component among edges with
// κ ≥ κ(eid) — sorted by external edge.
func MaxCore(g TriangleGraph, kappa []int32, eid int32) []graph.Edge {
	return component(g, kappa, eid, kappa[eid], make([]bool, len(kappa)))
}

// Communities returns the triangle-connected components of g's κ ≥ k
// subgraph under kappa, each sorted by external edge, components ordered
// by first edge; nil when no edge reaches level k. kappa must cover
// every live edge id of g.
func Communities(g TriangleGraph, kappa []int32, k int32) [][]graph.Edge {
	type start struct {
		e   graph.Edge
		eid int32
	}
	var starts []start
	g.ForEachEdgeID(func(eid int32) bool {
		if kappa[eid] >= k {
			starts = append(starts, start{g.EdgeAt(eid), eid})
		}
		return true
	})
	// Order by external edge, never by dense id: dense numbering depends
	// on the substrate's allocation history, external edges do not, so
	// every representation of one graph lists the same communities in
	// the same order.
	sort.Slice(starts, func(i, j int) bool { return starts[i].e.Less(starts[j].e) })
	seen := make([]bool, len(kappa))
	var comms [][]graph.Edge
	for _, st := range starts {
		if !seen[st.eid] {
			comms = append(comms, component(g, kappa, st.eid, k, seen))
		}
	}
	return comms
}

// component returns the edges reachable from start through triangles
// whose three edges all carry κ ≥ k, sorted by external edge. Visited
// edges are marked in seen (indexed by edge id), which the caller owns.
func component(g TriangleGraph, kappa []int32, start, k int32, seen []bool) []graph.Edge {
	seen[start] = true
	queue := []int32{start}
	out := []graph.Edge{}
	for head := 0; head < len(queue); head++ {
		eid := queue[head]
		out = append(out, g.EdgeAt(eid))
		g.ForEachTriangleOn(eid, func(_, e1, e2 int32) bool {
			if kappa[e1] < k || kappa[e2] < k {
				return true
			}
			for _, nxt := range [2]int32{e1, e2} {
				if !seen[nxt] {
					seen[nxt] = true
					queue = append(queue, nxt)
				}
			}
			return true
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// CoreTriangles implements the paper's Rule 1: given the processing order
// of Algorithm 1, the triangles belonging to e's maximum Triangle K-Core
// are the last κ(e) triangles on e in increasing order of "process time"
// (the smallest order value among a triangle's edges). It returns those
// triangles; the boolean is false if e is absent.
//
// This is the mechanism by which the paper avoids storing per-edge core
// membership (AddToCore / DelFromCore bookkeeping) explicitly.
func (d *Decomposition) CoreTriangles(e graph.Edge) ([]graph.Triangle, bool) {
	ei := d.S.EdgeOf(e)
	if ei < 0 {
		return nil, false
	}
	u, v := d.S.Endpoints(ei)
	type timed struct {
		t    graph.Triangle
		when int32
	}
	var tris []timed
	d.S.ForEachTriangleEdge(u, v, func(w, e1, e2 int32) bool {
		when := d.OrderOf[ei]
		if d.OrderOf[e1] < when {
			when = d.OrderOf[e1]
		}
		if d.OrderOf[e2] < when {
			when = d.OrderOf[e2]
		}
		tris = append(tris, timed{
			t:    graph.NewTriangle(d.S.OrigID[u], d.S.OrigID[v], d.S.OrigID[w]),
			when: when,
		})
		return true
	})
	sort.Slice(tris, func(a, b int) bool { return tris[a].when < tris[b].when })
	k := int(d.Kappa[ei])
	if k > len(tris) {
		k = len(tris) // cannot happen for a correct decomposition
	}
	out := make([]graph.Triangle, 0, k)
	for _, tt := range tris[len(tris)-k:] {
		out = append(out, tt.t)
	}
	return out, true
}

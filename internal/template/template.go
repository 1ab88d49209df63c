// Package template implements Algorithm 4 of the paper: detection of
// user-defined template pattern cliques via characteristic and possible
// triangles.
//
// A template pattern (e.g. "clique formed entirely by new collaborations")
// is specified by two triangle predicates. *Characteristic* triangles are
// 3-vertex instances of the pattern; every vertex of a pattern clique must
// lie in one (the paper's two requirements). *Possible* triangles are the
// other triangle shapes that may occur inside a pattern clique among the
// characteristic vertices. Algorithm 4 marks the edges and vertices of
// both kinds special, builds the subgraph G_spe they induce, runs the
// Triangle K-Core decomposition (Algorithm 1) on it, and plots the full
// graph with co_clique_size = κ+2 on special edges and 0 elsewhere.
//
// The three patterns of Section V — New Form, Bridge and New Join — are
// provided as constructors over an edge/vertex novelty classification,
// which itself can come from a snapshot diff (evolving graphs, Figures
// 9–11) or from vertex attributes (the static PPI complexes of Figure 12).
//
// One body, DetectOn, runs the algorithm over a CSR view; Detect freezes
// a Graph and calls it. Given seed edges, DetectOn lists only the
// triangles on them, which is exact when every characteristic triangle
// contains a seed edge. Each characteristic triangle of the three
// evolving patterns has at least two new edges, so a change feed seeds
// the body with a batch's inserted edges and pays for the batch's
// triangles, not the graph's.
package template

import (
	"slices"
	"sort"

	"trikcore/internal/core"
	"trikcore/internal/graph"
	"trikcore/internal/plot"
)

// Spec is a template pattern definition.
type Spec struct {
	// Name labels the pattern in reports.
	Name string
	// IsCharacteristic reports whether a triangle of the graph is a
	// characteristic triangle of the pattern (Algorithm 4 step 1).
	IsCharacteristic func(t graph.Triangle) bool
	// IsPossible reports whether a triangle whose three vertices are all
	// special may appear inside a pattern clique (Algorithm 4 step 4).
	// Nil means the pattern admits no extra triangle shapes.
	IsPossible func(t graph.Triangle) bool
}

// Result is the output of Detect.
type Result struct {
	// Spec is the pattern that was detected.
	Spec Spec
	// Characteristic and Possible list the special triangles found.
	Characteristic, Possible []graph.Triangle
	// Special is G_spe: the subgraph of special edges and vertices.
	Special *graph.Graph
	// Kappa holds κ(e) from running Algorithm 1 on G_spe.
	Kappa map[graph.Edge]int
	// Values is the full graph's plotting assignment: κ+2 on special
	// edges, 0 elsewhere (Algorithm 4 steps 9–13).
	Values plot.EdgeValues
	// Series is the template clique distribution plot (step 14).
	Series plot.Series
}

// Detect runs Algorithm 4 on g with the given pattern spec: DetectOn
// over a CSR view of g, listing every triangle.
func Detect(g *graph.Graph, spec Spec) *Result {
	return DetectOn(graph.FreezeStatic(g), spec, nil)
}

// DetectOn runs Algorithm 4 on the CSR view s. With nil seeds it lists
// every triangle of s once. With seeds, dense edge ids of s, it lists
// only the triangles that contain a seed edge, each once. That is exact
// under one precondition: every characteristic triangle of spec in s
// contains a seed edge. NewForm, Bridge and NewJoin under an Evolving
// novelty meet it when the seeds are the new edges, because each of
// their characteristic triangles has at least two new edges.
//
// Either way, possible triangles are listed among the special vertices
// only, since IsPossible is only asked of triangles whose three vertices
// are all special. The plot stays global: it runs over all of s, because
// it decides peak positions and ties. With seeds and no characteristic
// triangle the plot is skipped and Series left empty: every plotted
// value would be 0, and such a plot has no peaks.
func DetectOn(s *graph.Static, spec Spec, seeds []int32) *Result {
	r := &Result{Spec: spec, Special: graph.New()}
	triangle := func(u, v, w int32) graph.Triangle {
		return graph.NewTriangle(s.OrigID[u], s.OrigID[v], s.OrigID[w])
	}

	// Step 1: find characteristic triangles; steps 2–3: mark their edges
	// and vertices special.
	specialV := make(map[int32]bool)
	specialE := make(map[int32]bool)
	forEachTriangle(s, seeds, func(u, v, w, e0, e1, e2 int32) {
		if t := triangle(u, v, w); spec.IsCharacteristic(t) {
			r.Characteristic = append(r.Characteristic, t)
			specialE[e0], specialE[e1], specialE[e2] = true, true, true
			specialV[u], specialV[v], specialV[w] = true, true, true
		}
	})
	verts := sortedIDs(specialV)

	// Steps 4–6: find possible triangles among special vertices and mark
	// their edges special.
	if spec.IsPossible != nil {
		forEachTriangleAmong(s, verts, func(u, v, w, e0, e1, e2 int32) {
			if t := triangle(u, v, w); spec.IsPossible(t) {
				r.Possible = append(r.Possible, t)
				specialE[e0], specialE[e1], specialE[e2] = true, true, true
			}
		})
	}

	// Step 7: build G_spe.
	edges := sortedIDs(specialE)
	for _, u := range verts {
		r.Special.AddVertex(s.OrigID[u])
	}
	for _, e := range edges {
		r.Special.AddEdgeE(s.EdgeAt(e))
	}

	// Step 8: Algorithm 1 on G_spe.
	r.Kappa = core.Decompose(r.Special).EdgeKappas()

	// Steps 9–13: co_clique_size per edge of the full graph.
	r.Values = make(plot.EdgeValues, len(edges))
	for e, k := range r.Kappa {
		r.Values[e] = k + 2
	}

	// Step 14: plot the clique distribution of G.
	if seeds == nil || len(r.Characteristic) > 0 {
		vals := make([]int32, s.NumEdges())
		for _, e := range edges {
			vals[e] = int32(r.Values[s.EdgeAt(e)])
		}
		r.Series = plot.DensityStatic(s, vals)
	}
	sortTriangles(r.Characteristic)
	sortTriangles(r.Possible)
	return r
}

// TopCliques returns the k densest template pattern cliques as peaks of
// the distribution plot (the red-circle selections of Figures 9–12).
func (r *Result) TopCliques(k, minWidth int) []plot.Peak {
	return r.Series.TopPeaks(k, minWidth)
}

// forEachTriangle lists triangles of s by their dense vertices and the
// dense ids of their edges e0 = {u, v}, e1 = {u, w} and e2 = {v, w}. With
// nil seeds it lists every triangle once, through the degree-oriented
// half. Otherwise it lists each triangle containing a seed edge once,
// from the lowest seed edge it contains.
func forEachTriangle(s *graph.Static, seeds []int32, fn func(u, v, w, e0, e1, e2 int32)) {
	if seeds == nil {
		s.ForEachEdgeID(func(i int32) bool {
			u, v := s.Endpoints(i)
			s.ForEachOrientedTriangle(i, func(e1, e2 int32) bool {
				a, b := s.Endpoints(e1)
				fn(u, v, a+b-u, i, e1, e2)
				return true
			})
			return true
		})
		return
	}
	ids := slices.Clone(seeds)
	slices.Sort(ids)
	ids = slices.Compact(ids)
	isSeed := func(e int32) bool {
		_, ok := slices.BinarySearch(ids, e)
		return ok
	}
	for _, i := range ids {
		u, v := s.Endpoints(i)
		s.ForEachTriangleOn(i, func(w, e1, e2 int32) bool {
			if !(e1 < i && isSeed(e1)) && !(e2 < i && isSeed(e2)) {
				fn(u, v, w, i, e1, e2)
			}
			return true
		})
	}
}

// forEachTriangleAmong lists once each triangle of s whose three vertices
// lie in verts (sorted dense positions), with u < v < w and edges as in
// forEachTriangle. Its cost is the rows of verts plus the triangles among
// them, independent of the rest of the graph.
func forEachTriangleAmong(s *graph.Static, verts []int32, fn func(u, v, w, e0, e1, e2 int32)) {
	// up[k] lists the members above verts[k] adjacent to it, ascending
	// like the CSR rows, with the connecting edge ids alongside.
	type adj struct{ nbr, eid []int32 }
	up := make([]adj, len(verts))
	in := func(v int32) (int, bool) { return slices.BinarySearch(verts, v) }
	for k, u := range verts {
		nbr, eid := s.Row(u)
		for j, v := range nbr {
			if v <= u {
				continue
			}
			if _, ok := in(v); ok {
				up[k].nbr = append(up[k].nbr, v)
				up[k].eid = append(up[k].eid, eid[j])
			}
		}
	}
	for k, u := range verts {
		a := up[k]
		for x, v := range a.nbr {
			kv, _ := in(v)
			b := up[kv]
			// Common members above v: merge a's tail past v with b.
			i, j := x+1, 0
			for i < len(a.nbr) && j < len(b.nbr) {
				switch {
				case a.nbr[i] < b.nbr[j]:
					i++
				case a.nbr[i] > b.nbr[j]:
					j++
				default:
					fn(u, v, a.nbr[i], a.eid[x], a.eid[i], b.eid[j])
					i++
					j++
				}
			}
		}
	}
}

// sortedIDs returns the keys of set in ascending order.
func sortedIDs(set map[int32]bool) []int32 {
	ids := make([]int32, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

func sortTriangles(ts []graph.Triangle) {
	sort.Slice(ts, func(i, j int) bool {
		a, b := ts[i], ts[j]
		if a.A != b.A {
			return a.A < b.A
		}
		if a.B != b.B {
			return a.B < b.B
		}
		return a.C < b.C
	})
}

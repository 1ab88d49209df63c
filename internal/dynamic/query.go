package dynamic

import (
	"fmt"
	"slices"

	"trikcore/internal/core"
	"trikcore/internal/graph"
)

// liveGraph presents the engine to core's κ-level queries: the
// substrate's live edge ids and external edges, with triangles listed by
// the engine's own active-triangle kernel, so a query reads the live
// state in place — nothing is frozen or materialized.
type liveGraph struct {
	*graph.Dense
	en *Engine
}

func (g liveGraph) ForEachTriangleOn(eid int32, fn func(w, e1, e2 int32) bool) {
	g.en.forEachActiveTriangleOn(eid, fn)
}

// MaxCoreOf returns the maximum Triangle K-Core of edge e in the current
// graph — the triangle-connected component of e among edges with
// κ ≥ κ(e) — computed from the engine's live κ values without re-running
// Algorithm 1. The boolean is false if e is not a current edge.
func (en *Engine) MaxCoreOf(e graph.Edge) (*graph.Graph, bool) {
	eid := en.d.EdgeIDV(e.U, e.V)
	if eid < 0 {
		return nil, false
	}
	return graph.FromEdges(core.MaxCore(liveGraph{en.d, en}, en.kappa, eid)), true
}

// Communities returns the triangle-connected components of the κ ≥ k
// subgraph under the engine's live κ values, each as a sorted edge list
// ordered by first edge — the dynamic counterpart of
// core.Decomposition.Communities.
func (en *Engine) Communities(k int32) [][]graph.Edge {
	return core.Communities(liveGraph{en.d, en}, en.kappa, k)
}

// RuleOneWitness reconstructs a maximum Triangle K-Core witness for e —
// κ(e) triangles satisfying Theorem 1 — from nothing but the live κ
// values, the dynamic counterpart of the paper's Rule 1 ("if we do not
// store triangles...").
//
// The paper derives Rule 1 from processing-order timestamps and spends
// Algorithms 5–7's bookkeeping keeping them consistent. The timestamps
// are, however, redundant: Algorithm 1 processes edges in non-decreasing
// κ order, so any triangle containing an edge with κ < κ(e) is "processed
// early" and excluded, while among the remaining triangles — those whose
// other edges all carry κ ≥ κ(e) — any κ(e) of them form a valid witness
// (they are exactly the triangles of e inside the κ(e)-core subgraph).
// Selecting the first κ(e) such triangles by third vertex therefore
// implements Rule 1 without any maintained order state; see DESIGN.md
// §3.2. TrackedEngine additionally keeps these sets materialized.
func (en *Engine) RuleOneWitness(e graph.Edge) ([]graph.Triangle, bool) {
	eid := en.d.EdgeIDV(e.U, e.V)
	if eid < 0 {
		return nil, false
	}
	k := en.kappa[eid]
	var thirds []graph.Vertex
	en.forEachActiveTriangleOn(eid, func(w, e1, e2 int32) bool {
		if en.kappa[e1] >= k && en.kappa[e2] >= k {
			thirds = append(thirds, en.d.OrigOf(w))
		}
		return true
	})
	slices.Sort(thirds)
	out := make([]graph.Triangle, 0, k)
	for _, w := range thirds {
		if int32(len(out)) == k { //trikcheck:checked out holds at most k triangles
			break
		}
		out = append(out, graph.NewTriangle(e.U, e.V, w))
	}
	return out, true
}

// CoCliqueSizes returns the plotting quantity κ(e)+2 for every live edge
// (Algorithm 3 step 2, over maintained values).
func (en *Engine) CoCliqueSizes() map[graph.Edge]int {
	out := make(map[graph.Edge]int, en.d.NumEdges())
	en.d.ForEachEdgeID(func(eid int32) bool {
		out[en.d.EdgeAt(eid)] = int(en.kappa[eid]) + 2
		return true
	})
	return out
}

// KappaHistogram returns, for each live κ value, the number of edges
// carrying it — served from the maintained histogram, O(maxκ).
func (en *Engine) KappaHistogram() map[int32]int {
	h := make(map[int32]int, en.maxK+1)
	for k, n := range en.hist {
		if n > 0 {
			h[int32(k)] = n //trikcheck:checked k indexes hist, whose length is maxK+1 ≤ int32
		}
	}
	return h
}

// KappaCounts returns a copy of the maintained histogram as a slice:
// element k counts the live edges with κ = k, for k up to MaxKappa.
func (en *Engine) KappaCounts() []int { return slices.Clone(en.hist[:en.maxK+1]) }

// VerifyConsistency recomputes the decomposition from scratch on the
// current graph and returns an error describing the first disagreement
// with the maintained κ values or histogram (nil when fully consistent).
// It is a diagnostic for embedders; the test suite uses full recomputation
// externally in the same way.
func (en *Engine) VerifyConsistency() error {
	d := core.Decompose(en.d.Materialize())
	if got, want := en.d.NumEdges(), d.S.NumEdges(); got != want {
		return fmt.Errorf("dynamic: engine tracks %d edges, graph has %d", got, want)
	}
	for i, k := range d.Kappa {
		e := d.S.EdgeAt(int32(i)) //trikcheck:checked i indexes Kappa, bounded to int32 by FreezeStatic
		eid := en.d.EdgeIDV(e.U, e.V)
		if eid < 0 {
			return fmt.Errorf("dynamic: edge %v missing from substrate", e)
		}
		if got := en.kappa[eid]; got != k {
			return fmt.Errorf("dynamic: κ(%v) = %d, recompute says %d", e, got, k)
		}
	}
	if en.maxK != d.MaxKappa {
		return fmt.Errorf("dynamic: maintained maxκ = %d, recompute says %d", en.maxK, d.MaxKappa)
	}
	want := d.KappaHistogram()
	for k, n := range en.KappaHistogram() {
		if want[k] != n {
			return fmt.Errorf("dynamic: histogram[%d] = %d, recompute says %d", k, n, want[k])
		}
	}
	return nil
}

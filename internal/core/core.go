// Package core implements the paper's primary contribution: Triangle
// K-Core decomposition (Algorithm 1).
//
// A Triangle K-Core (Definition 3) is a subgraph in which every edge is
// contained in at least k triangles of the subgraph. The maximum Triangle
// K-Core number κ(e) of an edge (Definition 4) is the largest such k over
// all subgraphs containing the edge. Decompose computes κ(e) for every
// edge with a localized peeling algorithm whose running time is linear in
// the number of triangles of the graph.
//
// The algorithm mirrors Algorithm 1 of the paper: initialize each edge's
// upper bound κ̃(e) to its triangle support, bucket-sort edges by κ̃, then
// repeatedly process the edge with minimum κ̃ — its bound is now exact
// (Claim 2) — and decrement the bounds of the other two edges of each
// still-unprocessed triangle through it (steps 11–17, guarded by the
// Theorem 1 comparison in step 13).
package core

import (
	"trikcore/internal/graph"
	"trikcore/internal/obs"
)

// Decomposition is the result of a Triangle K-Core decomposition of a
// graph. Edge state is indexed by the dense edge ids of the frozen Static
// view S; helpers translate to and from graph.Edge values.
type Decomposition struct {
	// S is the frozen view of the input graph the decomposition ran on.
	S *graph.Static
	// Kappa[i] is κ(edge i): the maximum Triangle K-Core number of edge i.
	Kappa []int32
	// Order lists edge indices in the order Algorithm 1 processed them
	// (ascending κ̃ at pop time). Order[p] is the edge processed at step p.
	Order []int32
	// OrderOf is the inverse permutation of Order: OrderOf[i] is the
	// "time stamp" at which edge i was processed (the paper's e.order).
	OrderOf []int32
	// Support[i] is the initial triangle support of edge i — the paper's
	// κ̃ upper bound before peeling.
	Support []int32
	// MaxKappa is the largest κ value in the graph; MaxKappa+2 bounds the
	// largest clique (a n-clique is a Triangle (n-2)-Core).
	MaxKappa int32
}

// Phase names Options.Phases observes, one per stage of Algorithm 1's
// pipeline: freezing the CSR view, the triangle-support computation, and
// the bucket peel.
const (
	PhaseFreeze  = "freeze"
	PhaseSupport = "support"
	PhasePeel    = "peel"
)

// Options configure Decompose.
type Options struct {
	// Parallelism bounds the number of goroutines used for the initial
	// support computation. Zero means GOMAXPROCS. The peeling phase is
	// inherently sequential and always runs on one goroutine.
	Parallelism int
	// Phases, when non-nil, receives one duration observation per
	// decomposition phase (PhaseFreeze, PhaseSupport, PhasePeel). A nil
	// timer costs nothing.
	Phases *obs.PhaseTimer
}

// Decompose runs Algorithm 1 on g and returns κ(e) for every edge.
func Decompose(g *graph.Graph) *Decomposition {
	return DecomposeWith(g, Options{})
}

// DecomposeWith is Decompose with explicit options.
func DecomposeWith(g *graph.Graph, opts Options) *Decomposition {
	sp := opts.Phases.Start(PhaseFreeze)
	s := graph.FreezeStatic(g)
	sp.End()
	return DecomposeStatic(s, opts)
}

// DecomposeStatic runs Algorithm 1 on an already-frozen graph view.
func DecomposeStatic(s *graph.Static, opts Options) *Decomposition {
	sp := opts.Phases.Start(PhaseSupport)
	support := ComputeSupport(s, opts.Parallelism)
	sp.End()
	sp = opts.Phases.Start(PhasePeel)
	d := DecomposeWithSupport(s, support)
	sp.End()
	return d
}

// DecomposeWithSupport runs only the peeling phase of Algorithm 1
// (steps 7–18, see Peel) given precomputed edge supports. Table III's
// "Re-compute" column times exactly this phase, matching the paper's
// accounting. The support slice is not mutated.
func DecomposeWithSupport(s *graph.Static, support []int32) *Decomposition {
	r := Peel(s, support)
	return &Decomposition{
		S:        s,
		Kappa:    r.Kappa,
		Order:    r.Order,
		OrderOf:  r.OrderOf,
		Support:  append([]int32(nil), support...),
		MaxKappa: r.MaxKappa,
	}
}

// KappaOf returns κ(e) for a graph edge, and false if e is not an edge of
// the decomposed graph.
func (d *Decomposition) KappaOf(e graph.Edge) (int32, bool) {
	i := d.S.EdgeOf(e)
	if i < 0 {
		return 0, false
	}
	return d.Kappa[i], true
}

// EdgeKappas materializes κ as a map keyed by canonical edges.
func (d *Decomposition) EdgeKappas() map[graph.Edge]int {
	out := make(map[graph.Edge]int, len(d.Kappa))
	for i, k := range d.Kappa {
		out[d.S.EdgeAt(int32(i))] = int(k)
	}
	return out
}

// CoCliqueSizes returns the paper's plotting quantity per edge:
// co_clique_size(e) = κ(e) + 2, the Triangle K-Core proxy for the largest
// clique containing e (Algorithm 3, step 2).
func (d *Decomposition) CoCliqueSizes() map[graph.Edge]int {
	out := make(map[graph.Edge]int, len(d.Kappa))
	for i, k := range d.Kappa {
		out[d.S.EdgeAt(int32(i))] = int(k) + 2
	}
	return out
}

// KappaHistogram returns, for each κ value present, the number of edges
// carrying it.
func (d *Decomposition) KappaHistogram() map[int32]int {
	h := make(map[int32]int)
	for _, k := range d.Kappa {
		h[k]++
	}
	return h
}

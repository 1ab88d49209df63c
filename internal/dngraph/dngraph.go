// Package dngraph reimplements the DN-Graph baselines of Wang et al.
// (reference [3] of the paper): the iterative TriDN algorithm and its
// binary-search refinement BiTriDN, which compute a "valid" upper bound
// λ̄(e) on the maximum DN-Graph density λ(e) of every edge.
//
// Definition 5 of the paper: inside triangle Δ(u, v, w), vertex w supports
// λ(u, v) when λ(u, v) ≤ min(λ(u, w), λ(v, w)); λ(u, v) is valid when at
// least λ(u, v) vertices support it. Both algorithms start from the
// trivial bound λ̄(e) = support(e) and repeatedly shrink each edge's value
// to the largest k with at least k supporting triangles, until a fixed
// point. Section VI of the paper (Claim 3) proves the Triangle K-Core
// number κ(e) is exactly this converged valid λ̄(e) — the connection this
// package exists to demonstrate, together with the cost gap: TriDN and
// BiTriDN need many full passes over all triangles, while Algorithm 1
// peels once.
package dngraph

import (
	"slices"

	"trikcore/internal/graph"
)

// Result holds the converged λ̄ assignment.
type Result struct {
	// S is the frozen view the computation ran on; Lambda is indexed by
	// its dense edge ids.
	S *graph.Static
	// Lambda[i] is the converged valid λ̄ of edge i.
	Lambda []int32
	// Iterations is the number of full passes performed, including the
	// final pass that observed no change.
	Iterations int
	// Converged is false only if MaxIterations stopped the computation
	// early.
	Converged bool
}

// Options configure TriDN and BiTriDN.
type Options struct {
	// MaxIterations bounds the number of full passes; zero means run to
	// convergence.
	MaxIterations int
}

// TriDN computes valid λ̄(e) for all edges using the linear-scan update:
// each pass recomputes, for every edge, the largest k ≤ λ̄(e) supported by
// at least k triangles, scanning candidate values downward.
func TriDN(g *graph.Graph, opts Options) *Result {
	return run(g, opts, false)
}

// BiTriDN computes valid λ̄(e) like TriDN but finds each edge's new value
// by binary search over k — the paper's "improvement over TriDN".
func BiTriDN(g *graph.Graph, opts Options) *Result {
	return run(g, opts, true)
}

func run(g *graph.Graph, opts Options, binary bool) *Result {
	s := graph.FreezeStatic(g)
	m := s.NumEdges()
	lambda := make([]int32, m)
	for i := 0; i < m; i++ {
		lambda[i] = int32(s.Support(int32(i)))
	}
	r := &Result{S: s, Lambda: lambda, Converged: true}

	// Each pass is synchronous (Jacobi-style): new values are computed
	// from the previous pass's assignment for every edge, matching the
	// paper's "iterations until convergence" accounting for TriDN (e.g.
	// 66 iterations on Flickr). The update operator is monotone
	// non-increasing from the support upper bound, so the iteration
	// converges to the greatest fixed point — the valid λ̄ assignment.
	next := make([]int32, m)
	var mins []int32
	for {
		r.Iterations++
		changed := false
		for i := int32(0); i < int32(m); i++ {
			cur := lambda[i]
			if cur == 0 {
				next[i] = 0
				continue
			}
			mins = mins[:0]
			u, v := s.Endpoints(i)
			s.ForEachTriangleEdge(u, v, func(w, e1, e2 int32) bool {
				l1, l2 := lambda[e1], lambda[e2]
				if l2 < l1 {
					l1 = l2
				}
				mins = append(mins, l1)
				return true
			})
			if binary {
				next[i] = bestSupportedBinary(mins, cur)
			} else {
				next[i] = bestSupportedLinear(mins, cur)
			}
			if next[i] != cur {
				changed = true
			}
		}
		lambda, next = next, lambda
		r.Lambda = lambda
		if !changed {
			return r
		}
		if opts.MaxIterations > 0 && r.Iterations >= opts.MaxIterations {
			r.Converged = false
			return r
		}
	}
}

// bestSupportedLinear returns the largest k ≤ cur with at least k entries
// of mins ≥ k, scanning k downward from cur (TriDN's inner loop).
func bestSupportedLinear(mins []int32, cur int32) int32 {
	for k := cur; k > 0; k-- {
		n := int32(0)
		for _, m := range mins {
			if m >= k {
				n++
			}
		}
		if n >= k {
			return k
		}
	}
	return 0
}

// bestSupportedBinary returns the same value as bestSupportedLinear using
// a sort plus binary search (BiTriDN's inner loop). The count of entries
// ≥ k is monotone non-increasing in k, so "supported" (count ≥ k) is a
// downward-closed predicate and binary search applies.
func bestSupportedBinary(mins []int32, cur int32) int32 {
	if len(mins) == 0 || cur == 0 {
		return 0
	}
	sorted := append([]int32(nil), mins...)
	slices.SortFunc(sorted, func(a, b int32) int { return int(b) - int(a) })
	countAtLeast := func(k int32) int32 {
		// sorted is descending; count prefix ≥ k.
		lo, hi := 0, len(sorted)
		for lo < hi {
			mid := (lo + hi) / 2
			if sorted[mid] >= k {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return int32(lo)
	}
	lo, hi := int32(0), cur // invariant: lo is supported, hi+1 is not
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if countAtLeast(mid) >= mid {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// LambdaOf returns λ̄(e) for a graph edge and false if the edge is absent.
func (r *Result) LambdaOf(e graph.Edge) (int32, bool) {
	i := r.S.EdgeOf(e)
	if i < 0 {
		return 0, false
	}
	return r.Lambda[i], true
}

// EdgeLambdas materializes λ̄ as a map keyed by canonical edges.
func (r *Result) EdgeLambdas() map[graph.Edge]int {
	out := make(map[graph.Edge]int, len(r.Lambda))
	for i, l := range r.Lambda {
		out[r.S.EdgeAt(int32(i))] = int(l)
	}
	return out
}

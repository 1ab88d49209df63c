package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"trikcore/internal/bucket"
	"trikcore/internal/graph"
)

// PeelResult is the raw output of the peel kernel, indexed by dense
// edge id like the view it ran on.
type PeelResult struct {
	// Kappa[i] is κ(edge i).
	Kappa []int32
	// Order lists edge ids in processing order; OrderOf is its inverse.
	Order, OrderOf []int32
	// MaxKappa is the largest κ value.
	MaxKappa int32
}

// Peel runs steps 7–18 of Algorithm 1 on s: bucket edges by the κ̃
// upper bound in support, repeatedly freeze the minimum (its bound is
// exact, Claim 2) and decrement the bounds of the other two edges of each
// triangle through it that are still unprocessed, guarded by the
// Theorem 1 comparison. Triangles are found by merging live rows (see
// graph.LiveAdj), and each edge leaves them as it is frozen.
//
// Edges with support 0 lie in no triangle, so they have κ = 0, decrement
// nothing and never appear in another edge's merge. They are the initial
// bucket-0 block and pop first; Peel leaves them out of the live rows
// entirely. The Dec sequence, and with it κ, Order and OrderOf, is the
// one a peel over every edge produces.
//
// The result is the drained queue itself: its pop sequence is Order,
// its positions OrderOf and its final priorities κ (bucket.Drained), and
// since pops are non-decreasing, MaxKappa is the last popped value. The
// support slice is not mutated.
func Peel(s *graph.Static, support []int32) PeelResult {
	var r PeelResult
	la := graph.NewLiveAdj(s, support)
	q := bucket.New(support)
	for {
		et, kt, ok := q.PopMin()
		if !ok {
			break
		}
		r.MaxKappa = kt
		if support[et] == 0 {
			continue
		}
		u, v := s.Endpoints(et)
		la.RemoveEdge(et)
		la.ForEachTriangleEdge(u, v, func(w, e1, e2 int32) bool {
			// Step 13: only bounds strictly above κ(e_t) shrink; smaller
			// or equal bounds already account for this triangle's loss.
			if q.Val(e1) > kt {
				q.Dec(e1)
			}
			if q.Val(e2) > kt {
				q.Dec(e2)
			}
			return true
		})
	}
	r.Order, r.OrderOf, r.Kappa = q.Drained()
	return r
}

// supportBlock is the edge-block granularity of the work-stealing support
// computation. Blocks are handed out through an atomic counter rather than
// pre-chunked ranges: on power-law graphs the support cost of an edge is
// proportional to its endpoint degrees, so static chunking strands the
// workers that drew low-degree ranges while a hub-heavy range runs alone.
const supportBlock = 512

// ComputeSupport returns the triangle support of every edge of s (the
// κ̃ initialization of Algorithm 1, steps 1–5). It lists each triangle
// exactly once through the oriented kernel and credits all three of its
// edges, rather than intersecting full adjacency rows per edge — a 3×
// reduction in triangle visits plus oriented rows bounded by O(√M).
// With parallelism above one (zero means GOMAXPROCS), workers steal
// fixed-size edge blocks from a shared atomic counter (static chunking
// strands workers on power-law degree skew) and publish credits with
// atomic adds. s is the concrete view, so the per-edge callback does
// not escape to the heap.
func ComputeSupport(s *graph.Static, parallelism int) []int32 {
	m := s.NumEdges()
	support := make([]int32, m)
	workers := parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > (m+supportBlock-1)/supportBlock {
		workers = (m + supportBlock - 1) / supportBlock
	}
	if workers <= 1 {
		for i := int32(0); i < int32(m); i++ {
			s.ForEachOrientedTriangle(i, func(e1, e2 int32) bool {
				support[i]++
				support[e1]++
				support[e2]++
				return true
			})
		}
		return support
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int32(next.Add(supportBlock)) - supportBlock
				if lo >= int32(m) {
					return
				}
				hi := lo + supportBlock
				if hi > int32(m) {
					hi = int32(m)
				}
				for i := lo; i < hi; i++ {
					s.ForEachOrientedTriangle(i, func(e1, e2 int32) bool {
						atomic.AddInt32(&support[i], 1)
						atomic.AddInt32(&support[e1], 1)
						atomic.AddInt32(&support[e2], 1)
						return true
					})
				}
			}
		}()
	}
	wg.Wait()
	return support
}

package plot

import (
	"container/heap"
	"sort"

	"trikcore/internal/graph"
)

// DensityStatic is Density over an immutable CSR view, with per-edge
// values in a flat array indexed by the view's dense edge ids (the layout
// Engine.FreezeView hands back: co_clique_size = κ+2). It allocates no
// maps and never materializes a Graph, which is what makes density plots
// cheap enough to memoize per published snapshot.
//
// The traversal is the same OPTICS-style enumeration as Density, and —
// crucially for byte-determinism of served plots — every tie breaks on
// the *external* vertex id (OrigID), never on dense position. Dense
// positions depend on the substrate's allocation history; external ids do
// not, so two views of the same graph frozen from different histories
// produce identical series. DensityStatic(s, vals) equals
// Density(g, m) exactly whenever s is a view of g and m maps each edge to
// its vals entry (property-tested).
func DensityStatic(s *graph.Static, vals []int32) Series {
	var out Series
	n := s.NumVertices()
	if n == 0 {
		return out
	}
	// Best incident edge value per dense vertex, one sweep over the rows.
	best := make([]int32, n)
	for u := 0; u < n; u++ {
		_, eids := s.Row(int32(u))
		for _, e := range eids {
			if x := vals[e]; x > best[u] {
				best[u] = x
			}
		}
	}

	// Seeds: every vertex ordered by best incident value descending,
	// external id ascending on ties. Consumed lazily as components start.
	seeds := make([]int32, n)
	for i := range seeds {
		seeds[i] = int32(i)
	}
	sort.Slice(seeds, func(i, j int) bool {
		a, b := seeds[i], seeds[j]
		if best[a] != best[b] {
			return best[a] > best[b]
		}
		return s.OrigID[a] < s.OrigID[b]
	})

	visited := make([]bool, n)
	// reach[w] = -1 means "not on the frontier", mirroring map absence in
	// Density (incident values are ≥ 0, so -1 compares below all of them).
	reach := make([]int32, n)
	for i := range reach {
		reach[i] = -1
	}
	pq := &staticHeap{orig: s.OrigID}
	heap.Init(pq)

	visit := func(u int32, h int32) {
		visited[u] = true
		out.Points = append(out.Points, Point{V: s.OrigID[u], Height: int(h)})
		nbr, eids := s.Row(u)
		for k, w := range nbr {
			if visited[w] {
				continue
			}
			if val := vals[eids[k]]; val > reach[w] {
				reach[w] = val
				heap.Push(pq, staticItem{v: w, val: val})
			}
		}
	}

	seedIdx := 0
	for len(out.Points) < n {
		// Drain the frontier of the current component.
		progressed := false
		for pq.Len() > 0 {
			it := heap.Pop(pq).(staticItem)
			if visited[it.v] || reach[it.v] != it.val {
				continue // stale entry
			}
			visit(it.v, it.val)
			progressed = true
			break
		}
		if progressed {
			continue
		}
		// Start the next component from the best remaining seed.
		for seedIdx < len(seeds) && visited[seeds[seedIdx]] {
			seedIdx++
		}
		u := seeds[seedIdx]
		visit(u, best[u])
	}
	return out
}

// staticItem is a frontier entry of DensityStatic: dense vertex v
// reachable at value val.
type staticItem struct {
	v   int32
	val int32
}

// staticHeap is a max-heap on val; ties break on the external id of the
// vertex, which is what keeps the enumeration independent of dense
// vertex numbering. (v, val) pairs are unique — a vertex is re-pushed
// only with a strictly larger value — so the order is total and the pop
// sequence is deterministic regardless of push order.
type staticHeap struct {
	items []staticItem
	orig  []graph.Vertex
}

func (h *staticHeap) Len() int { return len(h.items) }
func (h *staticHeap) Less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if a.val != b.val {
		return a.val > b.val
	}
	return h.orig[a.v] < h.orig[b.v]
}
func (h *staticHeap) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *staticHeap) Push(x any)    { h.items = append(h.items, x.(staticItem)) }
func (h *staticHeap) Pop() any {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}

package plot

import (
	"sort"

	"trikcore/internal/core"
	"trikcore/internal/graph"
)

// EdgeValues assigns the plotted co-clique size to each edge. Edges absent
// from the map plot as 0 (the convention Algorithms 3 and 4 use for
// edges outside the structure of interest).
type EdgeValues map[graph.Edge]int

// FromDecomposition derives edge values from a Triangle K-Core
// decomposition: co_clique_size(e) = κ(e) + 2 (Algorithm 3 step 2).
func FromDecomposition(d *core.Decomposition) EdgeValues {
	return EdgeValues(d.CoCliqueSizes())
}

// CoCliqueValues returns co_clique_size = κ+2 (Algorithm 3 step 2) by
// edge id, the values DensityStatic plots for a decomposition or a
// snapshot.
func CoCliqueValues(kappa []int32) []int32 {
	vals := make([]int32, len(kappa))
	for i, k := range kappa {
		vals[i] = k + 2
	}
	return vals
}

// Density produces the OPTICS-style density plot of g under the given
// edge values: DensityStatic's traversal over a fresh CSR view of g, with
// the map's values laid out by edge id (full int width, never narrowed).
func Density(g *graph.Graph, vals EdgeValues) Series {
	s := graph.FreezeStatic(g)
	byID := make([]int, s.NumEdges())
	for i := range byID {
		byID[i] = vals[s.EdgeAt(int32(i))]
	}
	return density(s, byID)
}

// DensityStatic produces the OPTICS-style density plot of an immutable
// CSR view, with per-edge values in a flat array indexed by the view's
// dense edge ids (the layout Engine.FreezeView hands back:
// co_clique_size = κ+2). It allocates no maps and never materializes a
// Graph, which is what makes density plots cheap enough to memoize per
// published snapshot.
//
// The traversal mirrors the enumeration CSV uses: start from the vertex
// with the highest-valued incident edge, then repeatedly emit the
// unvisited vertex with the best "reachability" — the maximum value among
// edges connecting it to an already-visited vertex — plotting it at that
// reachability. Members of a dense structure therefore appear
// consecutively at its co-clique size, producing the flat plateaus the
// paper reads as potential cliques. Exhausted components are followed by
// the best remaining seed vertex, plotted at its best incident value
// floored at 0.
//
// Every tie breaks toward the smaller *external* vertex id (OrigID),
// never the dense position. Dense positions depend on the substrate's
// allocation history; external ids do not, so two views of the same
// graph frozen from different histories produce identical series, which
// is what keeps served plots byte-deterministic.
func DensityStatic(s *graph.Static, vals []int32) Series {
	return density(s, vals)
}

// plotValue is the type of a per-edge plotted value: int for EdgeValues,
// int32 for the flat co-clique arrays of frozen views.
type plotValue interface{ int | int32 }

// density is the one ordering body behind Density and DensityStatic.
func density[T plotValue](s *graph.Static, vals []T) Series {
	var out Series
	n := s.NumVertices()
	if n == 0 {
		return out
	}
	// Best incident edge value per dense vertex, one sweep over the rows.
	best := make([]T, n)
	for u := range best {
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

	// A vertex joins the frontier on its first edge from a visited
	// vertex, whatever that edge's value (values may be negative), and
	// reach then holds its best value so far; queued, not a sentinel
	// value, records membership.
	visited := make([]bool, n)
	queued := make([]bool, n)
	reach := make([]T, n)
	pq := &frontier[T]{orig: s.OrigID}

	visit := func(u int32, h T) {
		visited[u] = true
		out.Points = append(out.Points, Point{V: s.OrigID[u], Height: int(h)})
		nbr, eids := s.Row(u)
		for k, w := range nbr {
			if visited[w] {
				continue
			}
			if val := vals[eids[k]]; !queued[w] || val > reach[w] {
				queued[w], reach[w] = true, val
				pq.push(frontierItem[T]{v: w, val: val})
			}
		}
	}

	seedIdx := 0
	for len(out.Points) < n {
		// Drain the frontier of the current component.
		progressed := false
		for len(pq.items) > 0 {
			it := pq.pop()
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

// frontierItem is a frontier entry: dense vertex v reachable at value val.
type frontierItem[T plotValue] struct {
	v   int32
	val T
}

// frontier is a binary max-heap on val; ties break on the external id
// of the vertex, which is what keeps the enumeration independent of
// dense vertex numbering. (v, val) pairs are unique — a vertex is
// re-pushed only with a strictly larger value — so the order is total
// and the pop sequence is deterministic regardless of push order. Items
// are pushed and popped by value, so the heap allocates only when its
// array grows.
type frontier[T plotValue] struct {
	items []frontierItem[T]
	orig  []graph.Vertex
}

// before reports whether a pops before b.
func (h *frontier[T]) before(a, b frontierItem[T]) bool {
	if a.val != b.val {
		return a.val > b.val
	}
	return h.orig[a.v] < h.orig[b.v]
}

// push adds it and sifts it up to its place.
func (h *frontier[T]) push(it frontierItem[T]) {
	h.items = append(h.items, it)
	j := len(h.items) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !h.before(it, h.items[i]) {
			break
		}
		h.items[j] = h.items[i]
		j = i
	}
	h.items[j] = it
}

// pop removes and returns the first item: the last item takes the root
// and sifts down.
func (h *frontier[T]) pop() frontierItem[T] {
	top := h.items[0]
	n := len(h.items) - 1
	it := h.items[n]
	h.items = h.items[:n]
	j := 0
	for {
		c := 2*j + 1
		if c >= n {
			break
		}
		if c+1 < n && h.before(h.items[c+1], h.items[c]) {
			c++
		}
		if !h.before(h.items[c], it) {
			break
		}
		h.items[j] = h.items[c]
		j = c
	}
	if n > 0 {
		h.items[j] = it
	}
	return top
}

// sortSeeds orders vertices by seed value descending, id ascending.
func sortSeeds(seeds []graph.Vertex, val map[graph.Vertex]int) {
	sort.Slice(seeds, func(i, j int) bool {
		a, b := seeds[i], seeds[j]
		if val[a] != val[b] {
			return val[a] > val[b]
		}
		return a < b
	})
}

// DensityNaive plots vertices sorted by their best incident edge value
// descending (no traversal). It exists as the ablation of the OPTICS-style
// enumeration: naive sorting interleaves distinct structures of equal
// density into one plateau, destroying the plot's central reading that
// one plateau ≈ one clique — which is why CSV (and this reproduction)
// order by traversal instead. See TestNaiveOrderingMergesDistinctCliques.
func DensityNaive(g *graph.Graph, vals EdgeValues) Series {
	verts := g.Vertices()
	best := make(map[graph.Vertex]int, len(verts))
	for _, v := range verts {
		b := 0
		g.ForEachNeighbor(v, func(w graph.Vertex) bool {
			if x := vals[graph.NewEdge(v, w)]; x > b {
				b = x
			}
			return true
		})
		best[v] = b
	}
	sortSeeds(verts, best)
	var s Series
	for _, v := range verts {
		s.Points = append(s.Points, Point{V: v, Height: best[v]})
	}
	return s
}

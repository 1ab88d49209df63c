package plot

import (
	"container/heap"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"trikcore/internal/graph"
)

// densityMapRef is the map-based OPTICS ordering that Density ran before
// it became a wrapper over the CSR body, kept as the oracle: map
// values, map frontier membership (absence means "not on the frontier"),
// a heap of (vertex, value) broken on vertex id.
func densityMapRef(g *graph.Graph, vals EdgeValues) Series {
	var s Series
	n := g.NumVertices()
	if n == 0 {
		return s
	}
	bestIncident := func(v graph.Vertex) int {
		best := 0
		g.ForEachNeighbor(v, func(w graph.Vertex) bool {
			if x := vals[graph.NewEdge(v, w)]; x > best {
				best = x
			}
			return true
		})
		return best
	}
	seeds := g.Vertices()
	seedVal := make(map[graph.Vertex]int, n)
	for _, v := range seeds {
		seedVal[v] = bestIncident(v)
	}
	sortSeeds(seeds, seedVal)

	visited := make(map[graph.Vertex]bool, n)
	reach := make(map[graph.Vertex]int, n)
	pq := &refHeap{}
	visit := func(v graph.Vertex, h int) {
		visited[v] = true
		s.Points = append(s.Points, Point{V: v, Height: h})
		g.ForEachNeighbor(v, func(w graph.Vertex) bool {
			if visited[w] {
				return true
			}
			val := vals[graph.NewEdge(v, w)]
			if cur, ok := reach[w]; !ok || val > cur {
				reach[w] = val
				heap.Push(pq, refItem{v: w, val: val})
			}
			return true
		})
	}
	seedIdx := 0
	for len(s.Points) < n {
		progressed := false
		for pq.Len() > 0 {
			it := heap.Pop(pq).(refItem)
			if visited[it.v] || reach[it.v] != it.val {
				continue
			}
			visit(it.v, it.val)
			progressed = true
			break
		}
		if progressed {
			continue
		}
		for seedIdx < len(seeds) && visited[seeds[seedIdx]] {
			seedIdx++
		}
		v := seeds[seedIdx]
		visit(v, seedVal[v])
	}
	return s
}

type refItem struct {
	v   graph.Vertex
	val int
}

type refHeap []refItem

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].val != h[j].val {
		return h[i].val > h[j].val
	}
	return h[i].v < h[j].v
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refItem)) }
func (h *refHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// randomPlotCase builds a random graph over ids in [-nv/2, nv/2) with
// some isolated vertices, and a value map that leaves some edges absent,
// carries entries for non-edges, and mixes negative values and values
// beyond int32 with ordinary co-clique sizes.
func randomPlotCase(rng *rand.Rand) (*graph.Graph, EdgeValues) {
	nv := 4 + rng.Intn(30)
	id := func() graph.Vertex { return graph.Vertex(rng.Intn(nv) - nv/2) }
	isolated, edges, strays := 1+rng.Intn(4), rng.Intn(4*nv), rng.Intn(5)
	g := graph.New()
	for i := 0; i < isolated; i++ {
		g.AddVertex(id() + graph.Vertex(10*nv))
	}
	for i := 0; i < edges; i++ {
		if u, v := id(), id(); u != v {
			g.AddEdge(u, v)
		}
	}
	vals := EdgeValues{}
	value := func() int {
		switch r := rng.Intn(10); {
		case r < 4:
			return 2 + rng.Intn(5)
		case r < 6:
			return -rng.Intn(4)
		case r < 7:
			return math.MaxInt32 + 1 + rng.Intn(3)
		case r < 8:
			return math.MinInt32 - 1 - rng.Intn(3)
		default:
			return rng.Intn(3)
		}
	}
	for _, e := range g.Edges() {
		if rng.Intn(5) != 0 { // about one edge in five stays absent
			vals[e] = value()
		}
	}
	for i := 0; i < strays; i++ {
		if u, v := id(), id(); u != v && !g.HasEdge(u, v) {
			vals[graph.NewEdge(u, v)] = value()
		}
	}
	return g, vals
}

// TestDensityMatchesMapReference checks that Density, now a wrapper over
// the CSR body, plots exactly what the map-based ordering plotted, on
// random graphs with negative ids, isolated vertices, absent edges,
// negative values and values beyond int32.
func TestDensityMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 400; trial++ {
		g, vals := randomPlotCase(rng)
		if got, want := Density(g, vals), densityMapRef(g, vals); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Density differs from the map ordering\ngot  %v\nwant %v",
				trial, got.Points, want.Points)
		}
	}
}

// TestDensityFrontierTakesNegativeValues pins the hand-checked case where
// a vertex's first edge from a visited vertex has a negative value: 3 is
// reached from 4 at −1 and must be plotted there, before the next seed.
func TestDensityFrontierTakesNegativeValues(t *testing.T) {
	g := graph.FromPairs(1, 2, 2, 3, 1, 3, 3, 4, 4, 5)
	vals := EdgeValues{
		graph.NewEdge(1, 2): -3,
		graph.NewEdge(3, 4): -1,
		graph.NewEdge(4, 5): 2,
	}
	want := []Point{{4, 2}, {5, 2}, {3, -1}, {1, 0}, {2, 0}}
	for name, s := range map[string]Series{"Density": Density(g, vals), "map": densityMapRef(g, vals)} {
		if !reflect.DeepEqual(s.Points, want) {
			t.Errorf("%s plots %v, want %v", name, s.Points, want)
		}
	}
}

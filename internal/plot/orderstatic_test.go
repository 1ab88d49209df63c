package plot

import (
	"math/rand"
	"reflect"
	"testing"

	"trikcore/internal/core"
	"trikcore/internal/graph"
)

// TestDensityStaticMatchesDensity property-tests the CSR traversal on a
// decomposition's view against the map-based ordering: same points, same
// order, same heights.
func TestDensityStaticMatchesDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		g := graph.New()
		const nv = 18
		for i := 0; i < 60; i++ {
			u := graph.Vertex(rng.Intn(nv))
			v := graph.Vertex(rng.Intn(nv))
			if u != v {
				g.AddEdge(u, v)
			}
		}
		if g.NumEdges() == 0 {
			continue
		}
		d := core.Decompose(g)
		want := densityMapRef(g, FromDecomposition(d))

		got := DensityStatic(d.S, CoCliqueValues(d.Kappa))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: DensityStatic differs from the map ordering\ngot  %v\nwant %v",
				trial, got.Points, want.Points)
		}
	}
}

// TestDensityStaticIndependentOfDenseLayout freezes the same graph from
// two Dense substrates with very different allocation histories (one
// clean, one whose slots were scrambled by inserting and tearing down
// junk first) and checks the plotted series are identical — the
// external-id tie-breaking that republish determinism rests on.
func TestDensityStaticIndependentOfDenseLayout(t *testing.T) {
	edges := [][2]graph.Vertex{
		{1, 2}, {2, 3}, {3, 1}, {3, 4}, {4, 5}, {5, 3},
		{1, 9}, {9, 2}, {7, 8}, {8, 9}, {4, 7},
	}
	f := func(e graph.Edge) int32 { return int32((e.U + e.V) % 5) }
	mk := func(d *graph.Dense) Series {
		s, _ := d.Freeze()
		vals := make([]int32, s.NumEdges())
		for i := range vals {
			vals[i] = f(s.EdgeAt(int32(i)))
		}
		return DensityStatic(s, vals)
	}

	clean := graph.NewDense()
	for _, e := range edges {
		clean.AddEdgeV(e[0], e[1])
	}

	scrambled := graph.NewDense()
	for i := 0; i < 6; i++ {
		scrambled.AddEdgeV(graph.Vertex(100+i), graph.Vertex(101+i))
	}
	for i := 0; i < 6; i++ {
		scrambled.RemoveEdgeByID(scrambled.EdgeIDV(graph.Vertex(100+i), graph.Vertex(101+i)))
	}
	scrambled.CompactEdges(nil)
	for i := 0; i <= 6; i++ {
		scrambled.RemoveVertexV(graph.Vertex(100 + i))
	}
	for i := len(edges) - 1; i >= 0; i-- {
		scrambled.AddEdgeV(edges[i][0], edges[i][1])
	}

	a, b := mk(clean), mk(scrambled)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("series differ across dense layouts\nclean     %v\nscrambled %v", a.Points, b.Points)
	}
	// And both equal the map-based ordering under the same values.
	g := clean.Materialize()
	m := EdgeValues{}
	for _, e := range g.Edges() {
		m[e] = int(f(e))
	}
	if want := densityMapRef(g, m); !reflect.DeepEqual(a, want) {
		t.Fatalf("static series differs from the map ordering\ngot  %v\nwant %v", a.Points, want.Points)
	}
}

package template

import (
	"testing"

	"trikcore/internal/graph"
)

func addClique(g *graph.Graph, verts ...graph.Vertex) {
	for i := 0; i < len(verts); i++ {
		for j := i + 1; j < len(verts); j++ {
			g.AddEdge(verts[i], verts[j])
		}
	}
}

// background adds unrelated structure that must not pollute detection: an
// old clique that persists unchanged and scattered old edges.
func background(old, new *graph.Graph) {
	addClique(old, 900, 901, 902, 903)
	addClique(new, 900, 901, 902, 903)
	old.AddEdge(910, 911)
	new.AddEdge(910, 911)
	new.AddEdge(911, 912) // a lone new edge, no triangle
}

// TestNewFormFigure4a reproduces Figure 4(a): vertices A..E (1..5) exist
// in the old graph (with some scattered old edges but no clique); the new
// graph adds all 10 edges among them, forming a 5-vertex New Form clique.
func TestNewFormFigure4a(t *testing.T) {
	old := graph.New()
	for v := graph.Vertex(1); v <= 5; v++ {
		old.AddVertex(v)
	}
	old.AddEdge(1, 20) // old edges hanging off the pattern vertices
	old.AddEdge(2, 21)
	new := old.Clone()
	addClique(new, 1, 2, 3, 4, 5)
	background(old, new)

	r := Detect(new, NewForm(Evolving(old, new)))
	if len(r.Characteristic) != 10 {
		t.Fatalf("got %d characteristic triangles, want C(5,3)=10", len(r.Characteristic))
	}
	if len(r.Possible) != 0 {
		t.Fatalf("NewForm admits no possible triangles, got %v", r.Possible)
	}
	if r.Special.NumVertices() != 5 || r.Special.NumEdges() != 10 {
		t.Fatalf("G_spe has %d vertices, %d edges", r.Special.NumVertices(), r.Special.NumEdges())
	}
	for e, k := range r.Kappa {
		if k != 3 {
			t.Fatalf("κ(%v) = %d in G_spe, want 3", e, k)
		}
	}
	// The plot peaks at the 5-clique; background structures plot at 0.
	peaks := r.TopCliques(1, 3)
	if len(peaks) != 1 || peaks[0].Height != 5 || peaks[0].Width() != 5 {
		t.Fatalf("TopCliques = %v", peaks)
	}
	if r.Values[graph.NewEdge(900, 901)] != 0 {
		t.Fatal("unchanged old clique leaked into the template plot")
	}
}

// TestBridgeFigure4b reproduces Figure 4(b): old graph holds two
// disconnected cliques {1,5} (an edge) and {2,3,4}; new edges join them
// into the 5-clique ABCDE. The pattern must pick up both the 2-new-edge
// characteristic triangles and the all-original △BCD possible triangle.
func TestBridgeFigure4b(t *testing.T) {
	old := graph.New()
	old.AddEdge(1, 5)
	addClique(old, 2, 3, 4)
	new := old.Clone()
	addClique(new, 1, 2, 3, 4, 5)
	background(old, new)

	r := Detect(new, Bridge(Evolving(old, new)))
	if len(r.Characteristic) == 0 {
		t.Fatal("no characteristic triangles found")
	}
	// △(2,3,4) is all-original and must appear as a possible triangle.
	foundBCD := false
	for _, tr := range r.Possible {
		if tr == graph.NewTriangle(2, 3, 4) {
			foundBCD = true
		}
	}
	if !foundBCD {
		t.Fatalf("possible triangles %v miss the all-original △(2,3,4)", r.Possible)
	}
	if r.Special.NumEdges() != 10 {
		t.Fatalf("G_spe has %d edges, want the full 5-clique", r.Special.NumEdges())
	}
	peaks := r.TopCliques(1, 3)
	if len(peaks) != 1 || peaks[0].Height != 5 {
		t.Fatalf("TopCliques = %v", peaks)
	}
	// The persisting background clique is all-original with no new edges
	// anywhere near it: none of its triangles are characteristic, and
	// since its vertices are not special it cannot enter via possible
	// triangles either.
	if r.Values[graph.NewEdge(900, 901)] != 0 {
		t.Fatal("background clique wrongly marked special")
	}
}

// TestNewJoinFigure4c reproduces Figure 4(c): old graph holds clique
// {4,5,6} (DEF); new vertices 1,2,3 (ABC) join to form the 6-clique
// ABCDEF. All-new △ABC and all-original △DEF must both be possible.
func TestNewJoinFigure4c(t *testing.T) {
	old := graph.New()
	addClique(old, 4, 5, 6)
	new := old.Clone()
	addClique(new, 1, 2, 3, 4, 5, 6)
	background(old, new)

	r := Detect(new, NewJoin(Evolving(old, new)))
	if len(r.Characteristic) == 0 {
		t.Fatal("no characteristic triangles found")
	}
	wantPossible := map[graph.Triangle]bool{
		graph.NewTriangle(1, 2, 3): false, // all new edges
		graph.NewTriangle(4, 5, 6): false, // all original edges
	}
	for _, tr := range r.Possible {
		if _, ok := wantPossible[tr]; ok {
			wantPossible[tr] = true
		}
	}
	for tr, seen := range wantPossible {
		if !seen {
			t.Fatalf("possible triangles miss %v: %v", tr, r.Possible)
		}
	}
	if r.Special.NumEdges() != 15 {
		t.Fatalf("G_spe has %d edges, want the full 6-clique", r.Special.NumEdges())
	}
	peaks := r.TopCliques(1, 3)
	if len(peaks) != 1 || peaks[0].Height != 6 || peaks[0].Width() != 6 {
		t.Fatalf("TopCliques = %v", peaks)
	}
}

// TestNewJoinRequiresOriginalBaseEdge checks the characteristic triangle
// constraint: a new vertex joining two original vertices that were NOT
// connected in the old graph is not a New Join characteristic triangle.
func TestNewJoinRequiresOriginalBaseEdge(t *testing.T) {
	old := graph.New()
	old.AddVertex(4)
	old.AddVertex(5) // 4 and 5 exist but are not connected
	new := old.Clone()
	addClique(new, 1, 4, 5) // new vertex 1 closes a triangle with a new base edge
	r := Detect(new, NewJoin(Evolving(old, new)))
	if len(r.Characteristic) != 0 {
		t.Fatalf("characteristic triangles %v should be empty", r.Characteristic)
	}
}

// TestInterComplexBridge exercises the static attribute variant of
// Section VII-F: a bridge clique spanning two labelled complexes.
func TestInterComplexBridge(t *testing.T) {
	g := graph.New()
	addClique(g, 1, 2, 3, 4) // complex "a" clique
	addClique(g, 10, 11, 12) // complex "b" clique
	// Vertex 1 bridges into complex b, forming the clique {1,10,11,12}.
	for _, v := range []graph.Vertex{10, 11, 12} {
		g.AddEdge(1, v)
	}
	label := map[graph.Vertex]string{1: "a", 2: "a", 3: "a", 4: "a", 10: "b", 11: "b", 12: "b"}

	r := Detect(g, Bridge(InterComplex(label)))
	if len(r.Characteristic) != 3 {
		// Triangles (1,10,11), (1,10,12), (1,11,12): two inter-complex
		// edges plus one intra-complex edge each.
		t.Fatalf("got %d characteristic triangles, want 3: %v", len(r.Characteristic), r.Characteristic)
	}
	// △(10,11,12) is intra-complex and must be possible.
	found := false
	for _, tr := range r.Possible {
		if tr == graph.NewTriangle(10, 11, 12) {
			found = true
		}
	}
	if !found {
		t.Fatalf("possible triangles %v miss △(10,11,12)", r.Possible)
	}
	peaks := r.TopCliques(1, 3)
	if len(peaks) != 1 || peaks[0].Height != 4 {
		t.Fatalf("TopCliques = %v, want the 4-vertex bridge clique", peaks)
	}
	// The pure complex-a clique (2,3,4 region without vertex 1's bridge)
	// must not plot: its triangles have no inter-complex edges.
	if r.Values[graph.NewEdge(2, 3)] != 0 {
		t.Fatal("intra-complex edge 2-3 wrongly plotted")
	}
}

func TestDetectOnEmptyGraph(t *testing.T) {
	old, new := graph.New(), graph.New()
	r := Detect(new, NewForm(Evolving(old, new)))
	if len(r.Characteristic) != 0 || r.Special.NumEdges() != 0 || r.Series.Len() != 0 {
		t.Fatal("empty detection should be empty")
	}
}

// TestForEachTriangleEnumeratesOnce checks the CSR listing behind
// DetectOn: on K4 plus a pendant triangle, nil seeds list every triangle
// exactly once, and a seed set lists exactly the triangles on a seed
// edge, once each even when a triangle holds several seeds.
func TestForEachTriangleEnumeratesOnce(t *testing.T) {
	g := graph.New()
	addClique(g, 1, 2, 3, 4)
	addClique(g, 4, 5, 6)
	s := graph.FreezeStatic(g)
	list := func(seeds []int32) map[graph.Triangle]int {
		count := map[graph.Triangle]int{}
		forEachTriangle(s, seeds, func(u, v, w, e0, e1, e2 int32) {
			tr := graph.NewTriangle(s.OrigID[u], s.OrigID[v], s.OrigID[w])
			for i, e := range [3]int32{e0, e1, e2} {
				want := [3]graph.Edge{
					graph.NewEdge(s.OrigID[u], s.OrigID[v]),
					graph.NewEdge(s.OrigID[u], s.OrigID[w]),
					graph.NewEdge(s.OrigID[v], s.OrigID[w]),
				}[i]
				if s.EdgeAt(e) != want {
					t.Fatalf("triangle %v: edge %d is %v, want %v", tr, i, s.EdgeAt(e), want)
				}
			}
			count[tr]++
		})
		return count
	}
	check := func(name string, got map[graph.Triangle]int, want ...graph.Triangle) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: listed %v, want %v", name, got, want)
		}
		for _, tr := range want {
			if got[tr] != 1 {
				t.Fatalf("%s: triangle %v listed %d times", name, tr, got[tr])
			}
		}
	}
	check("all", list(nil),
		graph.NewTriangle(1, 2, 3), graph.NewTriangle(1, 2, 4), graph.NewTriangle(1, 3, 4),
		graph.NewTriangle(2, 3, 4), graph.NewTriangle(4, 5, 6))
	seeds := []int32{
		s.EdgeOf(graph.NewEdge(1, 2)), s.EdgeOf(graph.NewEdge(2, 3)),
		s.EdgeOf(graph.NewEdge(1, 2)), s.EdgeOf(graph.NewEdge(5, 6)),
	}
	check("seeded", list(seeds),
		graph.NewTriangle(1, 2, 3), graph.NewTriangle(1, 2, 4),
		graph.NewTriangle(2, 3, 4), graph.NewTriangle(4, 5, 6))
	check("no seeds", list([]int32{}))

	among := map[graph.Triangle]int{}
	verts := []int32{s.Pos[1], s.Pos[2], s.Pos[4], s.Pos[5], s.Pos[6]}
	forEachTriangleAmong(s, verts, func(u, v, w, _, _, _ int32) {
		among[graph.NewTriangle(s.OrigID[u], s.OrigID[v], s.OrigID[w])]++
	})
	check("among", among, graph.NewTriangle(1, 2, 4), graph.NewTriangle(4, 5, 6))
}

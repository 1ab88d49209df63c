package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"trikcore/internal/graph"
	"trikcore/internal/reference"
)

func randomGraph(n int, p float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddVertex(graph.Vertex(i))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.AddEdge(graph.Vertex(i), graph.Vertex(j))
			}
		}
	}
	return g
}

func clique(n int) *graph.Graph {
	g := graph.New()
	for i := graph.Vertex(0); i < graph.Vertex(n); i++ {
		for j := i + 1; j < graph.Vertex(n); j++ {
			g.AddEdge(i, j)
		}
	}
	return g
}

// TestFigure2Example reproduces the worked example of Algorithm 1
// (Figure 2): vertices A..E mapped to 1..5, the edge list
// {AB, AC, BC, BD, BE, CD, CE, DE}. The paper derives κ(AB) = κ(AC) = 1
// and κ = 2 for every other edge.
func TestFigure2Example(t *testing.T) {
	g := graph.FromPairs(
		1, 2, // AB
		1, 3, // AC
		2, 3, // BC
		2, 4, // BD
		2, 5, // BE
		3, 4, // CD
		3, 5, // CE
		4, 5, // DE
	)
	d := Decompose(g)
	want := map[graph.Edge]int32{
		graph.NewEdge(1, 2): 1,
		graph.NewEdge(1, 3): 1,
		graph.NewEdge(2, 3): 2,
		graph.NewEdge(2, 4): 2,
		graph.NewEdge(2, 5): 2,
		graph.NewEdge(3, 4): 2,
		graph.NewEdge(3, 5): 2,
		graph.NewEdge(4, 5): 2,
	}
	for e, k := range want {
		got, ok := d.KappaOf(e)
		if !ok || got != k {
			t.Errorf("κ(%v) = %d (ok=%v), want %d", e, got, ok, k)
		}
	}
	// Initial κ̃ upper bounds from the paper: AB(1), AC(1), BD(2), BE(2),
	// CD(2), CE(2), DE(2), BC(3).
	wantSup := map[graph.Edge]int32{
		graph.NewEdge(1, 2): 1, graph.NewEdge(1, 3): 1, graph.NewEdge(2, 3): 3,
		graph.NewEdge(2, 4): 2, graph.NewEdge(2, 5): 2, graph.NewEdge(3, 4): 2,
		graph.NewEdge(3, 5): 2, graph.NewEdge(4, 5): 2,
	}
	for e, s := range wantSup {
		i := d.S.EdgeOf(e)
		if d.Support[i] != s {
			t.Errorf("support(%v) = %d, want %d", e, d.Support[i], s)
		}
	}
	if d.MaxKappa != 2 {
		t.Fatalf("MaxKappa = %d, want 2", d.MaxKappa)
	}
}

// TestFigure1TriangleKCore checks the paper's Figure 1(b) claim shape: a
// 5-vertex Triangle K-Core with number 2 (K5 minus one edge) versus the
// 5-cycle K-Core of Figure 1(a) which has no triangles at all.
func TestFigure1TriangleKCore(t *testing.T) {
	k5e := clique(5)
	k5e.RemoveEdge(3, 4)
	d := Decompose(k5e)
	for _, e := range k5e.Edges() {
		k, _ := d.KappaOf(e)
		if k != 2 {
			t.Fatalf("κ(%v) = %d, want 2 on K5 minus an edge", e, k)
		}
	}
}

// TestCliqueKappa checks the identity stated in Section III: an n-vertex
// clique is an n-vertex Triangle K-Core with number n-2.
func TestCliqueKappa(t *testing.T) {
	for n := 3; n <= 9; n++ {
		d := Decompose(clique(n))
		for i, k := range d.Kappa {
			if int(k) != n-2 {
				t.Fatalf("K%d: κ(%v) = %d, want %d", n, d.S.EdgeAt(int32(i)), k, n-2)
			}
		}
	}
}

func TestTriangleFreeGraph(t *testing.T) {
	g := graph.FromPairs(1, 2, 2, 3, 3, 4, 4, 1) // 4-cycle
	d := Decompose(g)
	for _, k := range d.Kappa {
		if k != 0 {
			t.Fatal("triangle-free graph must have all κ = 0")
		}
	}
	if d.MaxKappa != 0 {
		t.Fatalf("MaxKappa = %d", d.MaxKappa)
	}
}

func TestEmptyGraph(t *testing.T) {
	d := Decompose(graph.New())
	if len(d.Kappa) != 0 || d.MaxKappa != 0 || len(d.Order) != 0 {
		t.Fatal("empty graph decomposition wrong")
	}
	if _, ok := d.KappaOf(graph.NewEdge(1, 2)); ok {
		t.Fatal("KappaOf on empty graph returned ok")
	}
}

func TestQuickMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(22, 0.25, seed)
		d := Decompose(g)
		want := reference.TriangleCore(g)
		for e, k := range want {
			got, ok := d.KappaOf(e)
			if !ok || int(got) != k {
				return false
			}
		}
		return len(want) == len(d.Kappa)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDenseMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(14, 0.6, seed)
		d := Decompose(g)
		want := reference.TriangleCore(g)
		for e, k := range want {
			got, _ := d.KappaOf(e)
			if int(got) != k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestTheorem1 verifies the paper's Theorem 1 on the reconstructed core
// membership: every triangle in e's maximum Triangle K-Core has its other
// two edges with κ no smaller than κ(e).
func TestTheorem1(t *testing.T) {
	g := randomGraph(30, 0.25, 11)
	d := Decompose(g)
	for _, e := range g.Edges() {
		tris, ok := d.CoreTriangles(e)
		if !ok {
			t.Fatalf("CoreTriangles(%v) not ok", e)
		}
		ke, _ := d.KappaOf(e)
		if int32(len(tris)) != ke {
			t.Fatalf("edge %v: %d core triangles, want κ=%d", e, len(tris), ke)
		}
		for _, tr := range tris {
			for _, oe := range tr.Edges() {
				if oe == e {
					continue
				}
				ko, ok := d.KappaOf(oe)
				if !ok {
					t.Fatalf("core triangle %v uses absent edge %v", tr, oe)
				}
				if ko < ke {
					t.Fatalf("Theorem 1 violated: κ(%v)=%d < κ(%v)=%d in %v", oe, ko, e, ke, tr)
				}
			}
		}
	}
}

func TestKappaAtMostSupport(t *testing.T) {
	g := randomGraph(35, 0.2, 3)
	d := Decompose(g)
	for i, k := range d.Kappa {
		if k > d.Support[i] {
			t.Fatalf("κ %d exceeds support %d", k, d.Support[i])
		}
	}
}

func TestCoreSubgraphIsTriangleKCore(t *testing.T) {
	g := randomGraph(40, 0.2, 21)
	d := Decompose(g)
	for k := int32(1); k <= d.MaxKappa; k++ {
		sub := d.CoreSubgraph(k)
		sub.ForEachEdge(func(e graph.Edge) bool {
			if int32(sub.SupportE(e)) < k {
				t.Fatalf("k=%d: edge %v has support %d inside core subgraph", k, e, sub.SupportE(e))
			}
			return true
		})
	}
}

func TestMaxCoreOf(t *testing.T) {
	g := randomGraph(30, 0.3, 9)
	d := Decompose(g)
	for _, e := range g.Edges() {
		ke, _ := d.KappaOf(e)
		sub, ok := d.MaxCoreOf(e)
		if !ok {
			t.Fatalf("MaxCoreOf(%v) not ok", e)
		}
		if !sub.HasEdgeE(e) {
			t.Fatalf("MaxCoreOf(%v) does not contain the edge", e)
		}
		sub.ForEachEdge(func(f graph.Edge) bool {
			if int32(sub.SupportE(f)) < ke {
				t.Fatalf("edge %v has support %d < κ(%v)=%d inside MaxCoreOf", f, sub.SupportE(f), e, ke)
			}
			return true
		})
	}
	if _, ok := d.MaxCoreOf(graph.NewEdge(500, 501)); ok {
		t.Fatal("MaxCoreOf of absent edge returned ok")
	}
}

func TestCommunities(t *testing.T) {
	// Two disjoint K4s joined by a single bridge edge: at k=2 the
	// communities are exactly the two cliques.
	g := graph.New()
	for i := graph.Vertex(0); i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			g.AddEdge(i, j)
			g.AddEdge(i+10, j+10)
		}
	}
	g.AddEdge(3, 10)
	d := Decompose(g)
	comms := d.Communities(2)
	if len(comms) != 2 {
		t.Fatalf("got %d communities at k=2, want 2", len(comms))
	}
	for _, c := range comms {
		if len(c) != 6 {
			t.Fatalf("community has %d edges, want 6 (a K4)", len(c))
		}
	}
	if got := d.Communities(3); len(got) != 0 {
		t.Fatalf("communities at k=3 = %v, want none", got)
	}
}

func TestParallelSupportMatchesSerial(t *testing.T) {
	g := randomGraph(60, 0.15, 31)
	serial := DecomposeWith(g, Options{Parallelism: 1})
	parallel := DecomposeWith(g, Options{Parallelism: 8})
	for i := range serial.Kappa {
		if serial.Kappa[i] != parallel.Kappa[i] {
			t.Fatalf("edge %d: serial κ %d, parallel κ %d", i, serial.Kappa[i], parallel.Kappa[i])
		}
		if serial.Support[i] != parallel.Support[i] {
			t.Fatalf("edge %d: support mismatch", i)
		}
	}
}

// TestWorkStealingSupportMatchesSerial uses a graph with several thousand
// edges so the block counter actually hands out multiple supportBlock
// chunks — small graphs clamp the worker count to one and would leave the
// work-stealing path (and its atomic credits) unexercised under -race.
func TestWorkStealingSupportMatchesSerial(t *testing.T) {
	g := randomGraph(260, 0.1, 97)
	s := graph.FreezeStatic(g)
	if s.NumEdges() <= 4*supportBlock {
		t.Fatalf("fixture too small (%d edges) to cover work stealing", s.NumEdges())
	}
	serial := ComputeSupport(s, 1)
	for _, workers := range []int{2, 4, 7} {
		stolen := ComputeSupport(s, workers)
		for i := range serial {
			if serial[i] != stolen[i] {
				t.Fatalf("workers=%d edge %d: support %d, serial says %d",
					workers, i, stolen[i], serial[i])
			}
		}
	}
}

func TestOrderIsPermutation(t *testing.T) {
	g := randomGraph(25, 0.3, 8)
	d := Decompose(g)
	if len(d.Order) != len(d.Kappa) {
		t.Fatal("Order length mismatch")
	}
	seen := make([]bool, len(d.Order))
	for p, e := range d.Order {
		if seen[e] {
			t.Fatal("Order repeats an edge")
		}
		seen[e] = true
		if d.OrderOf[e] != int32(p) {
			t.Fatal("OrderOf is not the inverse of Order")
		}
	}
}

// TestOrderKappaMonotone checks that edges are processed in ascending κ
// order — the invariant Claim 2's proof relies on.
func TestOrderKappaMonotone(t *testing.T) {
	g := randomGraph(30, 0.3, 77)
	d := Decompose(g)
	prev := int32(0)
	for _, e := range d.Order {
		if d.Kappa[e] < prev {
			t.Fatalf("processing order not ascending in κ: %d after %d", d.Kappa[e], prev)
		}
		prev = d.Kappa[e]
	}
}

func TestEdgeKappasAndHistogram(t *testing.T) {
	g := graph.FromPairs(1, 2, 2, 3, 3, 1, 3, 4)
	d := Decompose(g)
	m := d.EdgeKappas()
	if len(m) != 4 {
		t.Fatalf("EdgeKappas has %d entries", len(m))
	}
	if m[graph.NewEdge(1, 2)] != 1 || m[graph.NewEdge(3, 4)] != 0 {
		t.Fatalf("EdgeKappas wrong: %v", m)
	}
	cc := d.CoCliqueSizes()
	if cc[graph.NewEdge(1, 2)] != 3 || cc[graph.NewEdge(3, 4)] != 2 {
		t.Fatalf("CoCliqueSizes wrong: %v", cc)
	}
	h := d.KappaHistogram()
	if h[1] != 3 || h[0] != 1 {
		t.Fatalf("KappaHistogram wrong: %v", h)
	}
}

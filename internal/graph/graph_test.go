package graph

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewEdgeCanonical(t *testing.T) {
	e := NewEdge(5, 2)
	if e.U != 2 || e.V != 5 {
		t.Fatalf("NewEdge(5,2) = %v, want 2-5", e)
	}
	if NewEdge(2, 5) != e {
		t.Fatalf("NewEdge not order-independent")
	}
}

func TestNewEdgeSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewEdge(3,3) did not panic")
		}
	}()
	NewEdge(3, 3)
}

func TestEdgeOther(t *testing.T) {
	e := NewEdge(1, 9)
	if e.Other(1) != 9 || e.Other(9) != 1 {
		t.Fatalf("Other wrong: %d %d", e.Other(1), e.Other(9))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Other on non-endpoint did not panic")
		}
	}()
	e.Other(5)
}

func TestEdgeHasAndLess(t *testing.T) {
	e := NewEdge(3, 7)
	if !e.Has(3) || !e.Has(7) || e.Has(5) {
		t.Fatal("Edge.Has wrong")
	}
	if !NewEdge(1, 2).Less(NewEdge(1, 3)) || !NewEdge(1, 9).Less(NewEdge(2, 3)) {
		t.Fatal("Edge.Less wrong")
	}
	if NewEdge(2, 3).Less(NewEdge(2, 3)) {
		t.Fatal("Less not strict")
	}
}

func TestTriangleCanonicalAndAccessors(t *testing.T) {
	tr := NewTriangle(9, 1, 5)
	if tr.A != 1 || tr.B != 5 || tr.C != 9 {
		t.Fatalf("NewTriangle(9,1,5) = %v", tr)
	}
	edges := tr.Edges()
	want := [3]Edge{{1, 5}, {1, 9}, {5, 9}}
	if edges != want {
		t.Fatalf("Edges() = %v, want %v", edges, want)
	}
	if !tr.Has(5) || tr.Has(2) {
		t.Fatal("Triangle.Has wrong")
	}
	if !tr.HasEdge(NewEdge(1, 9)) || tr.HasEdge(NewEdge(1, 2)) {
		t.Fatal("Triangle.HasEdge wrong")
	}
	if tr.ThirdVertex(NewEdge(1, 5)) != 9 {
		t.Fatalf("ThirdVertex = %d, want 9", tr.ThirdVertex(NewEdge(1, 5)))
	}
	if tr.ThirdVertex(NewEdge(5, 9)) != 1 {
		t.Fatalf("ThirdVertex = %d, want 1", tr.ThirdVertex(NewEdge(5, 9)))
	}
}

func TestTriangleDegeneratePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("degenerate triangle did not panic")
		}
	}()
	NewTriangle(1, 1, 2)
}

func TestTriangleThirdVertexPanicsOnForeignEdge(t *testing.T) {
	tr := NewTriangle(1, 2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("ThirdVertex on foreign edge did not panic")
		}
	}()
	tr.ThirdVertex(NewEdge(4, 5))
}

func TestAddRemoveEdgeBasics(t *testing.T) {
	g := New()
	if !g.AddEdge(1, 2) {
		t.Fatal("AddEdge(1,2) returned false")
	}
	if g.AddEdge(2, 1) {
		t.Fatal("duplicate AddEdge returned true")
	}
	if g.NumEdges() != 1 || g.NumVertices() != 2 {
		t.Fatalf("got %d edges, %d vertices", g.NumEdges(), g.NumVertices())
	}
	if !g.HasEdge(1, 2) || !g.HasEdge(2, 1) {
		t.Fatal("HasEdge not symmetric")
	}
	if !g.RemoveEdge(1, 2) {
		t.Fatal("RemoveEdge returned false")
	}
	if g.RemoveEdge(1, 2) {
		t.Fatal("double RemoveEdge returned true")
	}
	if g.NumEdges() != 0 || !g.HasVertex(1) || !g.HasVertex(2) {
		t.Fatal("RemoveEdge should keep endpoints")
	}
}

func TestAddEdgeSelfLoopPanics(t *testing.T) {
	g := New()
	defer func() {
		if recover() == nil {
			t.Fatal("self-loop AddEdge did not panic")
		}
	}()
	g.AddEdge(4, 4)
}

func TestRemoveVertex(t *testing.T) {
	g := FromPairs(1, 2, 1, 3, 2, 3, 3, 4)
	if !g.RemoveVertex(3) {
		t.Fatal("RemoveVertex returned false")
	}
	if g.RemoveVertex(3) {
		t.Fatal("double RemoveVertex returned true")
	}
	if g.NumEdges() != 1 || g.NumVertices() != 3 {
		t.Fatalf("after removal: %d edges, %d vertices", g.NumEdges(), g.NumVertices())
	}
	if !g.HasEdge(1, 2) || g.HasEdge(1, 3) || g.HasEdge(3, 4) {
		t.Fatal("wrong surviving edges")
	}
}

func TestVerticesAndEdgesSorted(t *testing.T) {
	g := FromPairs(5, 3, 1, 5, 3, 1)
	wantV := []Vertex{1, 3, 5}
	if got := g.Vertices(); !reflect.DeepEqual(got, wantV) {
		t.Fatalf("Vertices() = %v, want %v", got, wantV)
	}
	wantE := []Edge{{1, 3}, {1, 5}, {3, 5}}
	if got := g.Edges(); !reflect.DeepEqual(got, wantE) {
		t.Fatalf("Edges() = %v, want %v", got, wantE)
	}
}

func TestCommonNeighborsAndSupport(t *testing.T) {
	// Triangle 1-2-3 plus a pendant 4 off vertex 1, plus 4-2 making a
	// second triangle on edge 1-2.
	g := FromPairs(1, 2, 1, 3, 2, 3, 1, 4, 2, 4)
	if got := g.CommonNeighbors(1, 2); !reflect.DeepEqual(got, []Vertex{3, 4}) {
		t.Fatalf("CommonNeighbors(1,2) = %v", got)
	}
	if s := g.Support(1, 2); s != 2 {
		t.Fatalf("Support(1,2) = %d, want 2", s)
	}
	if s := g.Support(1, 3); s != 1 {
		t.Fatalf("Support(1,3) = %d, want 1", s)
	}
	if s := g.SupportE(NewEdge(3, 2)); s != 1 {
		t.Fatalf("SupportE(2,3) = %d, want 1", s)
	}
}

func TestForEachTriangleOn(t *testing.T) {
	g := FromPairs(1, 2, 1, 3, 2, 3, 1, 4, 2, 4)
	var tris []Triangle
	g.ForEachTriangleOn(1, 2, func(tr Triangle) bool {
		tris = append(tris, tr)
		return true
	})
	if len(tris) != 2 {
		t.Fatalf("got %d triangles on edge 1-2, want 2", len(tris))
	}
	seen := map[Triangle]bool{}
	for _, tr := range tris {
		seen[tr] = true
	}
	if !seen[NewTriangle(1, 2, 3)] || !seen[NewTriangle(1, 2, 4)] {
		t.Fatalf("wrong triangles: %v", tris)
	}
}

func TestEarlyTermination(t *testing.T) {
	g := FromPairs(1, 2, 1, 3, 1, 4, 1, 5)
	n := 0
	g.ForEachNeighbor(1, func(Vertex) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("ForEachNeighbor early stop visited %d", n)
	}
	n = 0
	g.ForEachEdge(func(Edge) bool { n++; return false })
	if n != 1 {
		t.Fatalf("ForEachEdge early stop visited %d", n)
	}
	n = 0
	g.ForEachVertex(func(Vertex) bool { n++; return false })
	if n != 1 {
		t.Fatalf("ForEachVertex early stop visited %d", n)
	}
}

func TestClone(t *testing.T) {
	g := FromPairs(1, 2, 2, 3, 3, 1)
	c := g.Clone()
	c.RemoveEdge(1, 2)
	c.AddEdge(3, 4)
	if !g.HasEdge(1, 2) || g.HasEdge(3, 4) {
		t.Fatal("Clone is not independent of original")
	}
	if g.NumEdges() != 3 || c.NumEdges() != 3 {
		t.Fatalf("edge counts wrong: %d %d", g.NumEdges(), c.NumEdges())
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := FromPairs(1, 9, 1, 3, 1, 7)
	if got := g.NeighborsSorted(1); !reflect.DeepEqual(got, []Vertex{3, 7, 9}) {
		t.Fatalf("NeighborsSorted = %v", got)
	}
	if got := g.NeighborsSorted(42); len(got) != 0 {
		t.Fatalf("NeighborsSorted of absent vertex = %v", got)
	}
}

func TestFromPairsOddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("odd FromPairs did not panic")
		}
	}()
	FromPairs(1, 2, 3)
}

// randomGraph builds a G(n, p)-style random graph with the given seed.
func randomGraph(n int, p float64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New()
	for i := 0; i < n; i++ {
		g.AddVertex(Vertex(i))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.AddEdge(Vertex(i), Vertex(j))
			}
		}
	}
	return g
}

func TestQuickEdgeCountConsistency(t *testing.T) {
	// Property: after any sequence of add/remove operations, NumEdges
	// matches the length of Edges(), and degree sums to twice NumEdges.
	f := func(ops []uint16, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		for _, op := range ops {
			u := Vertex(op % 23)
			v := Vertex((op / 23) % 23)
			if u == v {
				continue
			}
			if rng.Intn(3) == 0 {
				g.RemoveEdge(u, v)
			} else {
				g.AddEdge(u, v)
			}
		}
		if len(g.Edges()) != g.NumEdges() {
			return false
		}
		degSum := 0
		g.ForEachVertex(func(v Vertex) bool { degSum += g.Degree(v); return true })
		return degSum == 2*g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSupportSymmetricAndBounded(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(18, 0.3, seed)
		ok := true
		g.ForEachEdge(func(e Edge) bool {
			s := g.Support(e.U, e.V)
			if s != g.Support(e.V, e.U) {
				ok = false
				return false
			}
			if s > g.Degree(e.U)-1 || s > g.Degree(e.V)-1 {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFromEdges(t *testing.T) {
	g := FromEdges([]Edge{NewEdge(2, 1), NewEdge(1, 2), NewEdge(3, 4)})
	if g.NumEdges() != 2 || !g.HasEdge(1, 2) || !g.HasEdge(3, 4) {
		t.Fatalf("FromEdges built %d edges", g.NumEdges())
	}
}

// TestSortKeysMatchesSlicesSort checks the radix key sort against
// slices.Sort on random edge keys with duplicates, negative ids and ids
// at the int32 extremes, at sizes from 0 to 10^5 and on both sides of
// parallelSortMin, and on keys whose ids share every bit but one: on
// one worker, on 2 to 4 workers, and as sortKeys picks.
func TestSortKeysMatchesSlicesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ids := []func() Vertex{
		func() Vertex { return Vertex(rng.Intn(50)) },
		func() Vertex { return Vertex(rng.Intn(1 << 20)) },
		func() Vertex { return Vertex(rng.Int31n(math.MaxInt32)) - math.MaxInt32/2 },
		func() Vertex { return []Vertex{math.MaxInt32, math.MinInt32, -1, 0, 1, math.MaxInt32 - 1}[rng.Intn(6)] },
		func() Vertex { return Vertex(rng.Intn(2)) << 30 },
	}
	for _, n := range []int{0, 1, 2, 3, 10, 1000, parallelSortMin - 1, parallelSortMin, 100_000} {
		for c, id := range ids {
			var keys []int64
			for len(keys) < n {
				u, v := id(), id()
				if u == v {
					continue
				}
				keys = appendPair(keys, u, v)
				if rng.Intn(4) == 0 {
					keys = appendPair(keys, v, u) // a duplicate edge
				}
			}
			keys = keys[:n]
			want := slices.Clone(keys)
			slices.Sort(want)
			if got := sortKeys(slices.Clone(keys)); !slices.Equal(got, want) {
				t.Fatalf("n=%d ids#%d: radix order differs from slices.Sort", n, c)
			}
			for workers := 1; workers <= 4; workers++ {
				if got := sortKeysOn(slices.Clone(keys), workers); !slices.Equal(got, want) {
					t.Fatalf("n=%d ids#%d, %d workers: radix order differs from slices.Sort", n, c, workers)
				}
			}
		}
	}
}

package dynamic

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"trikcore/internal/graph"
)

func TestTrackedEngineInitialMembership(t *testing.T) {
	g := randomGraph(20, 0.35, 4)
	te := NewTrackedEngine(g)
	if err := te.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Edges() {
		tris, ok := te.CoreTriangles(e)
		if !ok {
			t.Fatalf("CoreTriangles(%v) not ok", e)
		}
		k, _ := te.Kappa(e)
		if int32(len(tris)) != k {
			t.Fatalf("edge %v: %d witnesses, κ=%d", e, len(tris), k)
		}
	}
	if _, ok := te.CoreTriangles(graph.NewEdge(900, 901)); ok {
		t.Fatal("CoreTriangles of absent edge returned ok")
	}
}

func TestTrackedEngineFigure3(t *testing.T) {
	g := graph.FromPairs(1, 2, 2, 3, 1, 5, 1, 6, 5, 6, 3, 4, 3, 5, 4, 5)
	te := NewTrackedEngine(g)
	te.InsertEdge(1, 3)
	if err := te.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Every edge has κ=1 after the insertion (Figure 3), so every
	// witness set holds exactly one triangle.
	for _, e := range te.Graph().Edges() {
		tris, _ := te.CoreTriangles(e)
		if len(tris) != 1 {
			t.Fatalf("edge %v: witnesses %v, want exactly 1", e, tris)
		}
	}
}

func TestQuickTrackedChurn(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(12, 0.35, seed)
		te := NewTrackedEngine(g)
		for step := 0; step < 30; step++ {
			u := graph.Vertex(rng.Intn(12))
			v := graph.Vertex(rng.Intn(12))
			if u == v {
				continue
			}
			if te.Graph().HasEdge(u, v) {
				te.DeleteEdge(u, v)
			} else {
				te.InsertEdge(u, v)
			}
			if err := te.CheckInvariants(); err != nil {
				t.Logf("seed %d step %d: %v", seed, step, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTrackedMatchesUntrackedKappa(t *testing.T) {
	g := randomGraph(15, 0.3, 9)
	te := NewTrackedEngine(g)
	en := NewEngine(g)
	rng := rand.New(rand.NewSource(2))
	for step := 0; step < 40; step++ {
		u := graph.Vertex(rng.Intn(15))
		v := graph.Vertex(rng.Intn(15))
		if u == v {
			continue
		}
		if te.Graph().HasEdge(u, v) {
			te.DeleteEdge(u, v)
			en.DeleteEdge(u, v)
		} else {
			te.InsertEdge(u, v)
			en.InsertEdge(u, v)
		}
	}
	if !reflect.DeepEqual(te.EdgeKappas(), en.EdgeKappas()) {
		t.Fatal("tracked and untracked engines disagree on κ")
	}
}

func TestTrackedRemoveVertexAndDiff(t *testing.T) {
	g := randomGraph(14, 0.35, 6)
	te := NewTrackedEngine(g)
	if !te.RemoveVertex(3) || te.RemoveVertex(3) {
		t.Fatal("RemoveVertex bookkeeping wrong")
	}
	if err := te.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	other := randomGraph(16, 0.3, 7)
	te.ApplyDiff(graph.DiffGraphs(te.Graph(), other))
	if err := te.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(te.Graph().Edges(), other.Edges()) {
		t.Fatal("ApplyDiff did not converge to the target graph")
	}
}

func TestTrackedCommunityCollapse(t *testing.T) {
	// Dismantle a K6 edge by edge; witnesses must stay consistent at
	// every step even as κ falls from 4 to 0.
	g := graph.New()
	for i := graph.Vertex(0); i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			g.AddEdge(i, j)
		}
	}
	te := NewTrackedEngine(g)
	for _, e := range g.Edges() {
		te.DeleteEdge(e.U, e.V)
		if err := te.CheckInvariants(); err != nil {
			t.Fatalf("after deleting %v: %v", e, err)
		}
	}
}

// TestTrackedRepairsOnEveryPath mutates a tracked engine through the
// embedded Engine as well as the tracked method set, and checks the
// membership contract after each write: repair is the engine's
// end-of-batch hook, not something each entry point must remember.
func TestTrackedRepairsOnEveryPath(t *testing.T) {
	// K5 on 1..5 minus {1, 3}: inserting {1, 3} closes it, lifting every
	// edge to κ = 3.
	g := graph.New()
	for i := graph.Vertex(1); i <= 5; i++ {
		for j := i + 1; j <= 5; j++ {
			if i != 1 || j != 3 {
				g.AddEdge(i, j)
			}
		}
	}
	te := NewTrackedEngine(g)
	check := func(step string) {
		t.Helper()
		if err := te.CheckInvariants(); err != nil {
			t.Fatalf("after %s: %v", step, err)
		}
	}
	te.Engine.ApplyBatch([]EdgeOp{{U: 1, V: 3}})
	if k, _ := te.Kappa(graph.NewEdge(1, 3)); k != 3 {
		t.Fatalf("κ(1-3) = %d after closing K5, want 3", k)
	}
	check("Engine.ApplyBatch")

	te.ApplyBatchParallel([]EdgeOp{{U: 1, V: 6}, {U: 2, V: 6}, {U: 3, V: 6}, {U: 4, V: 5, Del: true}}, 4)
	check("ApplyBatchParallel")
	te.RemoveVertex(2)
	check("RemoveVertex")
	te.ApplyDiff(graph.DiffGraphs(te.Graph(), graph.FromPairs(1, 3, 3, 4, 1, 4, 4, 6, 1, 6, 3, 6, 7, 8)))
	check("ApplyDiff")
	if k, _ := te.Kappa(graph.NewEdge(1, 3)); k != 2 {
		t.Fatalf("κ(1-3) = %d in the final K4, want 2", k)
	}
}

package dynamic

import (
	"testing"

	"trikcore/internal/graph"
)

// TestEngineVersionSemantics pins the Version contract: the counter moves
// exactly when a mutation effectively changes the graph, once per public
// call (or per batch), and never on a no-op.
func TestEngineVersionSemantics(t *testing.T) {
	en := NewEngine(graph.FromPairs(1, 2, 2, 3, 3, 1))
	v0 := en.Version()

	if en.InsertEdge(1, 2) {
		t.Fatal("re-inserting a present edge reported added")
	}
	if en.Version() != v0 {
		t.Fatal("no-op insert bumped version")
	}
	if en.DeleteEdge(9, 10) {
		t.Fatal("deleting an absent edge reported removed")
	}
	if en.Version() != v0 {
		t.Fatal("no-op delete bumped version")
	}

	if !en.InsertEdge(1, 4) {
		t.Fatal("insert of a new edge reported no-op")
	}
	if en.Version() != v0+1 {
		t.Fatalf("effective insert: version %d, want %d", en.Version(), v0+1)
	}
	if !en.DeleteEdge(1, 4) {
		t.Fatal("delete of a present edge reported no-op")
	}
	if en.Version() != v0+2 {
		t.Fatalf("effective delete: version %d, want %d", en.Version(), v0+2)
	}
	v := en.Version()

	// A self-canceling batch changes nothing and must not bump.
	if a, r := en.ApplyBatch([]EdgeOp{{U: 7, V: 8}, {U: 7, V: 8, Del: true}}); a != 0 || r != 0 {
		t.Fatalf("self-canceling batch reported %d/%d", a, r)
	}
	if en.Version() != v {
		t.Fatal("self-canceling batch bumped version")
	}
	if en.ApplyBatch(nil); en.Version() != v {
		t.Fatal("empty batch bumped version")
	}
	// An effective batch bumps exactly once however many ops it carries.
	if a, r := en.ApplyBatch([]EdgeOp{{U: 1, V: 4}, {U: 2, V: 4}, {U: 3, V: 1, Del: true}}); a != 2 || r != 1 {
		t.Fatalf("batch reported %d/%d, want 2/1", a, r)
	}
	if en.Version() != v+1 {
		t.Fatalf("effective batch: version %d, want %d", en.Version(), v+1)
	}
	v = en.Version()

	if !en.AddVertex(100) || en.Version() != v+1 {
		t.Fatal("adding a new vertex must bump once")
	}
	if en.AddVertex(100) || en.Version() != v+1 {
		t.Fatal("re-adding a vertex must not bump")
	}
	if !en.RemoveVertex(100) || en.Version() != v+2 {
		t.Fatal("removing a present vertex must bump")
	}
	if en.RemoveVertex(100) || en.Version() != v+2 {
		t.Fatal("removing an absent vertex must not bump")
	}
	// A vertex with edges: one step for its deletion batch, however many
	// edges it had, and one for the vertex.
	v = en.Version()
	if !en.RemoveVertex(1) || en.Version() != v+2 {
		t.Fatalf("removing a vertex with edges: version %d, want %d", en.Version(), v+2)
	}
}

// TestFreezeViewProjectsKappa checks FreezeView after churn: the static
// view holds exactly the live edges and the returned κ array, indexed by
// static edge id, matches the engine's per-edge κ.
func TestFreezeViewProjectsKappa(t *testing.T) {
	en := NewEngine(graph.FromPairs(1, 2, 2, 3, 3, 1, 3, 4))
	// Churn enough to move edges into the holes deletions leave: grow a
	// clique, then tear part of it down.
	for u := graph.Vertex(1); u <= 6; u++ {
		for v := u + 1; v <= 6; v++ {
			en.InsertEdge(u, v)
		}
	}
	en.DeleteEdge(2, 5)
	en.DeleteEdge(3, 6)
	en.RemoveVertex(4)

	s, kappa := en.FreezeView()
	if s.NumEdges() != en.NumEdges() || s.NumVertices() != en.NumVertices() {
		t.Fatalf("view size %d/%d, engine %d/%d",
			s.NumVertices(), s.NumEdges(), en.NumVertices(), en.NumEdges())
	}
	if len(kappa) != s.NumEdges() {
		t.Fatalf("len(kappa) = %d, want %d", len(kappa), s.NumEdges())
	}
	for i := 0; i < s.NumEdges(); i++ {
		e := s.EdgeAt(int32(i))
		want, ok := en.Kappa(e)
		if !ok {
			t.Fatalf("frozen edge %v not live in engine", e)
		}
		if kappa[i] != want {
			t.Fatalf("kappa[%d] (%v) = %d, want %d", i, e, kappa[i], want)
		}
	}

	// The projection is a detached copy: further churn must not move it.
	before := append([]int32(nil), kappa...)
	en.InsertEdge(1, 50)
	en.DeleteEdge(1, 2)
	for i := range before {
		if kappa[i] != before[i] {
			t.Fatal("frozen κ changed under engine churn")
		}
	}
}

package dynamic

import (
	"math/rand"
	"testing"

	"trikcore/internal/core"
	"trikcore/internal/gen"
	"trikcore/internal/graph"
)

// TestRealisticChurnOnClusteredGraph drives the engine through hundreds
// of updates on a triangle-rich Holme–Kim graph with planted communities
// (the structure of the Table III datasets) and verifies the final κ
// assignment against a full recomputation. This is the scale regime the
// per-op property tests cannot reach.
func TestRealisticChurnOnClusteredGraph(t *testing.T) {
	g := gen.PowerLawCluster(2500, 5, 0.6, 77)
	gen.AddCommunities(g, 6, 8, 20, 0.9, 78)
	en := NewEngine(g)
	rng := rand.New(rand.NewSource(5))
	verts := g.Vertices()

	ins, del := 0, 0
	for step := 0; step < 600; step++ {
		u := verts[rng.Intn(len(verts))]
		v := verts[rng.Intn(len(verts))]
		if u == v {
			continue
		}
		if en.HasEdge(u, v) {
			en.DeleteEdge(u, v)
			del++
		} else {
			en.InsertEdge(u, v)
			ins++
		}
	}
	if ins == 0 || del == 0 {
		t.Fatalf("churn degenerate: %d inserts, %d deletes", ins, del)
	}
	want := core.Decompose(en.Graph()).EdgeKappas()
	got := en.EdgeKappas()
	if len(got) != len(want) {
		t.Fatalf("edge count drift: engine %d, graph %d", len(got), len(want))
	}
	for e, k := range want {
		if got[e] != k {
			t.Fatalf("after churn κ(%v) = %d, recompute says %d", e, got[e], k)
		}
	}
}

// TestCommunityCollapseAndRebuild deletes a planted community edge by
// edge (driving deep demotion cascades) and rebuilds it (driving deep
// promotion cascades), verifying κ at both extremes.
func TestCommunityCollapseAndRebuild(t *testing.T) {
	g := gen.PowerLawCluster(800, 4, 0.5, 3)
	comm := gen.AddCommunities(g, 1, 15, 15, 1.0, 4)[0]
	en := NewEngine(g)

	// The community is a 15-clique: its internal edges carry κ ≥ 13.
	internal := make([]graph.Edge, 0, 105)
	for i := 0; i < len(comm); i++ {
		for j := i + 1; j < len(comm); j++ {
			internal = append(internal, graph.NewEdge(comm[i], comm[j]))
		}
	}
	if k, _ := en.Kappa(internal[0]); k < 13 {
		t.Fatalf("community edge κ = %d, want ≥ 13", k)
	}
	for _, e := range internal {
		en.DeleteEdge(e.U, e.V)
	}
	want := core.Decompose(en.Graph()).EdgeKappas()
	for e, k := range want {
		if got, _ := en.Kappa(e); int(got) != k {
			t.Fatalf("after collapse κ(%v) = %d, want %d", e, got, k)
		}
	}
	for _, e := range internal {
		en.InsertEdge(e.U, e.V)
	}
	want = core.Decompose(en.Graph()).EdgeKappas()
	for e, k := range want {
		if got, _ := en.Kappa(e); int(got) != k {
			t.Fatalf("after rebuild κ(%v) = %d, want %d", e, got, k)
		}
	}
	if k, _ := en.Kappa(internal[0]); k < 13 {
		t.Fatalf("rebuilt community edge κ = %d, want ≥ 13", k)
	}
}

package plot

import (
	"reflect"
	"testing"

	"trikcore/internal/core"
	"trikcore/internal/dynamic"
	"trikcore/internal/graph"
)

// TestDualViewIncrementalMatchesStatic verifies the paper's Algorithm 3
// step 4 equivalence: producing the new snapshot's κ values with the
// incremental engine (Algorithm 2) yields exactly the dual view that a
// from-scratch decomposition produces. The engine's view numbers vertices
// and edges in its own slot order, unlike the decomposition's, so this
// also checks that the builder matches edges across views by endpoints.
func TestDualViewIncrementalMatchesStatic(t *testing.T) {
	old := noisyGraph(31)
	addClique(old, 200, 201, 202, 203, 204, 205)
	addClique(old, 300, 301, 302, 303)
	new := old.Clone()
	// Events: 210 joins the 6-clique; bridge forms between the two cliques.
	for v := graph.Vertex(200); v <= 205; v++ {
		new.AddEdge(210, v)
	}
	new.AddEdge(205, 300)
	new.AddEdge(205, 301)

	static := BuildDualView(old, new, DualViewOptions{TopK: 2})

	en := dynamic.NewEngine(old)
	en.ApplyDiff(graph.DiffGraphs(old, new))
	s, kappa := en.FreezeView()
	dOld := core.Decompose(old)
	before := DensityStatic(dOld.S, CoCliqueValues(dOld.Kappa))
	incremental := BuildDualViewStatic(dOld.S, s, before, CoCliqueValues(kappa), DualViewOptions{TopK: 2})

	if !reflect.DeepEqual(static.Before, incremental.Before) {
		t.Fatal("before plots differ")
	}
	if !reflect.DeepEqual(static.After, incremental.After) {
		t.Fatal("after plots differ")
	}
	if !reflect.DeepEqual(static.Markers, incremental.Markers) {
		t.Fatalf("markers differ:\nstatic      %+v\nincremental %+v", static.Markers, incremental.Markers)
	}
	if len(static.Markers) == 0 || static.Markers[0].Peak.Height != 7 {
		t.Fatalf("expected the 7-clique growth event on top, got %+v", static.Markers)
	}
}

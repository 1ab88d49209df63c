package dynamic

import (
	"strconv"
	"strings"
	"testing"

	"trikcore/internal/core"
	"trikcore/internal/graph"
	"trikcore/internal/obs"
)

// k4 builds a 4-clique: every edge has κ=2.
func k4() *graph.Graph {
	g := graph.New()
	verts := []graph.Vertex{1, 2, 3, 4}
	for i, u := range verts {
		for _, v := range verts[i+1:] {
			g.AddEdge(u, v)
		}
	}
	return g
}

func TestInstrumentRecordsMutations(t *testing.T) {
	reg := obs.NewRegistry()
	en := NewEngine(k4())
	en.Instrument(reg)

	if !en.InsertEdge(1, 5) {
		t.Fatal("insert 1-5 not applied")
	}
	if !en.DeleteEdge(1, 2) {
		t.Fatal("delete 1-2 not applied")
	}
	added, removed := en.ApplyBatch([]EdgeOp{
		{U: 2, V: 5},             // new edge
		{U: 3, V: 5},             // new edge
		{U: 3, V: 5},             // duplicate, deduped
		{U: 1, V: 5, Del: true},  // delete the earlier insert
		{U: 9, V: 10, Del: true}, // absent, no-op but applied as op
	})
	if added != 2 || removed != 1 {
		t.Fatalf("ApplyBatch = (%d, %d), want (2, 1)", added, removed)
	}

	expo := string(reg.Gather())
	for _, want := range []string{
		`trikcore_engine_ops_applied_total{op="insert"} 3`,
		`trikcore_engine_ops_applied_total{op="delete"} 2`,
		"trikcore_engine_ops_deduped_total 1",
		// The per-edge calls are batches of one: three batches in all.
		"trikcore_engine_apply_batch_seconds_count 3",
		`trikcore_engine_batch_stage_seconds_count{phase="insert"} 3`,
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if strings.Contains(expo, "trikcore_engine_op_seconds") {
		t.Error("per-edge calls must not have a metric family of their own")
	}

	// Structural gauges track the live substrate.
	if want := en.NumEdges(); !strings.Contains(expo, "trikcore_engine_live_edges "+strconv.Itoa(want)) {
		t.Errorf("live_edges gauge != %d in:\n%s", want, expo)
	}
	if want := en.NumVertices(); !strings.Contains(expo, "trikcore_engine_live_vertices "+strconv.Itoa(want)) {
		t.Errorf("live_vertices gauge != %d", want)
	}
	if !strings.Contains(expo, "trikcore_engine_substrate_bytes ") {
		t.Error("substrate_bytes gauge missing")
	}

	// Work counters must mirror the engine's own Stats.
	st := en.Stats()
	if st.Promotions > 0 && !strings.Contains(expo, "trikcore_engine_kappa_promotions_total "+strconv.Itoa(st.Promotions)) {
		t.Errorf("promotions counter != Stats.Promotions = %d", st.Promotions)
	}
	if !strings.Contains(expo, "trikcore_engine_triangles_processed_total "+strconv.Itoa(st.TrianglesProcessed)) {
		t.Errorf("triangles counter != Stats.TrianglesProcessed = %d", st.TrianglesProcessed)
	}
}

func TestInstrumentNopRegistry(t *testing.T) {
	en := NewEngine(k4())
	en.Instrument(obs.Nop())
	if en.mt != nil {
		t.Fatal("Nop registry must leave the engine uninstrumented")
	}
	en.InsertEdge(1, 5)
	en.ApplyBatch([]EdgeOp{{U: 2, V: 5}})
}

func TestNewEngineFromDecompositionMatchesNewEngine(t *testing.T) {
	reg := obs.NewRegistry()
	phases := obs.NewPhaseTimer(reg, "trikcore_core_phase_seconds",
		"Wall time per decomposition phase.", core.PhaseFreeze, core.PhaseSupport, core.PhasePeel)
	a := NewEngineFromDecomposition(core.DecomposeWith(k4(), core.Options{Phases: phases}))
	b := NewEngine(k4())
	ka, kb := a.EdgeKappas(), b.EdgeKappas()
	if len(ka) != len(kb) {
		t.Fatalf("edge counts differ: %d vs %d", len(ka), len(kb))
	}
	for e, k := range ka {
		if kb[e] != k {
			t.Fatalf("κ(%v) = %d vs %d", e, k, kb[e])
		}
	}
	// The handed-over decomposition's phases were all observed.
	expo := string(reg.Gather())
	for _, phase := range []string{core.PhaseFreeze, core.PhaseSupport, core.PhasePeel} {
		want := `trikcore_core_phase_seconds_count{phase="` + phase + `"} 1`
		if !strings.Contains(expo, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The adopted engine must stay fully mutable.
	a.InsertEdge(1, 5)
	a.DeleteEdge(1, 2)
}

package dynamic

import (
	"math/rand"
	"reflect"
	"testing"

	"trikcore/internal/core"
	"trikcore/internal/graph"
)

// TestApplyBatchMatchesSequential drives two engines from the same seed
// graph through randomized op streams — one per-op, one batched — and
// checks κ agreement with each other and with a from-scratch
// decomposition after every batch. Batches deliberately contain duplicate
// and conflicting ops on the same edge.
func TestApplyBatchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := randomGraph(25, 0.25, 17)
	seq := NewEngine(g)
	bat := NewEngine(g)
	const nv = 30
	for round := 0; round < 40; round++ {
		nops := 1 + rng.Intn(12)
		ops := make([]EdgeOp, 0, nops)
		for i := 0; i < nops; i++ {
			u := graph.Vertex(rng.Intn(nv))
			v := graph.Vertex(rng.Intn(nv))
			if u == v {
				continue
			}
			// Resolve the toggle against the sequential engine's state as
			// it would be mid-stream, conflicts and all.
			ops = append(ops, EdgeOp{U: u, V: v, Del: seq.HasEdge(u, v)})
			if ops[len(ops)-1].Del {
				seq.DeleteEdge(u, v)
			} else {
				seq.InsertEdge(u, v)
			}
		}
		bat.ApplyBatch(ops)
		if got, want := bat.EdgeKappas(), seq.EdgeKappas(); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: batched κ diverges from sequential\nbatched: %v\nsequential: %v", round, got, want)
		}
		if err := bat.VerifyConsistency(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// TestApplyBatchCounts pins the net-effect counting contract.
func TestApplyBatchCounts(t *testing.T) {
	en := NewEngine(graph.FromPairs(1, 2, 2, 3))
	added, removed := en.ApplyBatch([]EdgeOp{
		{U: 3, V: 1},            // new edge
		{U: 2, V: 1},            // duplicate of existing edge: no-op
		{U: 1, V: 2, Del: true}, // conflicts with the line above; later op wins
		{U: 7, V: 8},            // new edge
		{U: 8, V: 7, Del: true}, // cancels the insert above (absent before batch)
	})
	if added != 1 || removed != 1 {
		t.Fatalf("added=%d removed=%d, want 1, 1", added, removed)
	}
	if en.HasEdge(1, 2) || !en.HasEdge(1, 3) || en.HasEdge(7, 8) {
		t.Fatal("final edge set wrong")
	}
	if err := en.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
	// Empty batch is a no-op.
	if a, r := en.ApplyBatch(nil); a != 0 || r != 0 {
		t.Fatalf("empty batch reported %d/%d", a, r)
	}
}

// TestApplyBatchSelfLoopPanics pins the self-loop contract shared with
// InsertEdge.
func TestApplyBatchSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("self-loop op did not panic")
		}
	}()
	NewEngine(graph.New()).ApplyBatch([]EdgeOp{{U: 4, V: 4}})
}

// TestMaintainedAggregatesTrackRecompute checks MaxKappa and
// KappaHistogram stay correct through growth and collapse of a dense
// clique — the maintained-histogram satellite.
func TestMaintainedAggregatesTrackRecompute(t *testing.T) {
	en := NewEngine(graph.New())
	check := func() {
		t.Helper()
		d := core.Decompose(en.Graph())
		if en.MaxKappa() != d.MaxKappa {
			t.Fatalf("MaxKappa = %d, recompute says %d", en.MaxKappa(), d.MaxKappa)
		}
		if got, want := en.KappaHistogram(), d.KappaHistogram(); !reflect.DeepEqual(got, want) {
			t.Fatalf("histogram = %v, recompute says %v", got, want)
		}
	}
	check() // empty graph: MaxKappa 0, empty histogram
	// Grow K7 edge by edge, checking aggregates at every step.
	for i := int32(0); i < 7; i++ {
		for j := i + 1; j < 7; j++ {
			en.InsertEdge(i, j)
			check()
		}
	}
	if en.MaxKappa() != 5 {
		t.Fatalf("K7 MaxKappa = %d, want 5", en.MaxKappa())
	}
	// Tear it down edge by edge; MaxKappa must shrink back to 0.
	for i := int32(0); i < 7; i++ {
		for j := i + 1; j < 7; j++ {
			en.DeleteEdge(i, j)
			check()
		}
	}
	if en.MaxKappa() != 0 {
		t.Fatalf("empty MaxKappa = %d, want 0", en.MaxKappa())
	}
}

// TestTrackedApplyBatch checks the tracked engine repairs membership once
// per batch and keeps its invariants across conflicting batched ops.
func TestTrackedApplyBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	te := NewTrackedEngine(randomGraph(18, 0.3, 33))
	const nv = 22
	for round := 0; round < 25; round++ {
		nops := 1 + rng.Intn(10)
		ops := make([]EdgeOp, 0, nops)
		for i := 0; i < nops; i++ {
			u := graph.Vertex(rng.Intn(nv))
			v := graph.Vertex(rng.Intn(nv))
			if u == v {
				continue
			}
			ops = append(ops, EdgeOp{U: u, V: v, Del: rng.Intn(2) == 0})
		}
		te.ApplyBatch(ops)
		if err := te.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := te.VerifyConsistency(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// TestBatchChangesSurviveSlotReuse pins why the change log is keyed by
// external edge: in one serial batch the deletion of 1-2 frees its dense
// slot and the insertion of 4-5 takes it over, yet the netted log still
// reports the two edges apart, together with the demotions the deletion
// caused.
func TestBatchChangesSurviveSlotReuse(t *testing.T) {
	en := NewEngine(graph.FromPairs(1, 2, 2, 3, 1, 3, 4, 6))
	slot := en.d.EdgeIDV(1, 2)
	en.ApplyBatch([]EdgeOp{{U: 1, V: 2, Del: true}, {U: 4, V: 5}})
	if got := en.d.EdgeIDV(4, 5); got != slot {
		t.Fatalf("4-5 took dense slot %d, want the freed slot %d of 1-2", got, slot)
	}
	want := []KappaChange{
		{E: graph.NewEdge(1, 2), From: 1, To: -1},
		{E: graph.NewEdge(1, 3), From: 1, To: 0},
		{E: graph.NewEdge(2, 3), From: 1, To: 0},
		{E: graph.NewEdge(4, 5), From: -1, To: 0},
	}
	if got := NetChanges(en.BatchChanges()); !reflect.DeepEqual(got, want) {
		t.Fatalf("netted log = %v, want %v", got, want)
	}
}

// TestBatchChangesResetOnNoOp checks that every batch starts a fresh log:
// a batch that changes nothing leaves it empty rather than carrying the
// previous batch's transitions.
func TestBatchChangesResetOnNoOp(t *testing.T) {
	en := NewEngine(graph.FromPairs(1, 2, 2, 3))
	en.ApplyBatch([]EdgeOp{{U: 1, V: 3}})
	if len(en.BatchChanges()) == 0 {
		t.Fatal("effective batch logged no transitions")
	}
	v := en.Version()
	en.ApplyBatch([]EdgeOp{{U: 1, V: 2}, {U: 7, V: 8, Del: true}})
	if en.Version() != v {
		t.Fatal("no-op batch moved the version")
	}
	if got := en.BatchChanges(); len(got) != 0 {
		t.Fatalf("no-op batch left log %v", got)
	}
}

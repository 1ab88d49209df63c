package dynamic

import (
	"slices"
	"testing"

	"trikcore/internal/core"
	"trikcore/internal/graph"
)

// FuzzEngineChurn interprets fuzz bytes as a sequence of edge toggles
// over a small vertex universe and verifies four ways of applying the
// same operation stream against each other and against a full
// recomputation at the end: one engine applying the ops one by one, one
// applying them through ApplyBatch in chunks, two applying the same
// chunks through ApplyBatchParallel at workers 1 (the serial-delegation
// path) and 4 (real regions, validation and the conflict suffix), plus a
// TrackedEngine (whose witness invariants are checked too). Toggles are
// resolved into explicit insert/delete ops against the per-op engine's
// state, so every engine sees the same operation stream. After every
// batch on every arm, the netted change log must equal the κ diff of
// FreezeView taken before and after the batch.
//
// Under `-tags trikdebug` every single operation — and every parallel
// epoch — is followed by a full CheckInvariants sweep of both the
// substrate and the κ bookkeeping (on top of the debugAssert each
// mutating op already runs internally), so a corrupting op is caught at
// the op that corrupted, not at the final comparison. CI runs this fuzzer
// for a short wall-clock budget with the tag on; the committed corpus
// under testdata/fuzz replays known-gnarly churn sequences on every plain
// `go test` run.
func FuzzEngineChurn(f *testing.F) {
	f.Add([]byte{0x12, 0x34, 0x56})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64] // keep each case cheap
		}
		en := NewEngine(graph.New())
		bat := NewEngine(graph.New())
		par1 := NewEngine(graph.New())
		par4 := NewEngine(graph.New())
		te := NewTrackedEngine(graph.New())
		const n = 10
		const chunk = 4
		var pending []EdgeOp
		assertAll := func(step int) {
			if !debugChecks {
				return
			}
			if err := en.CheckInvariants(); err != nil {
				t.Fatalf("engine invariants after op %d: %v (ops %v)", step, err, ops)
			}
			if err := te.CheckInvariants(); err != nil {
				t.Fatalf("tracked invariants after op %d: %v (ops %v)", step, err, ops)
			}
		}
		flush := func() {
			checkChangeLog(t, "batched", bat, func() { bat.ApplyBatch(pending) })
			checkChangeLog(t, "parallel-1", par1, func() { par1.ApplyBatchParallel(pending, 1) })
			checkChangeLog(t, "parallel-4", par4, func() { par4.ApplyBatchParallel(pending, 4) })
			pending = pending[:0]
			if debugChecks {
				for name, e := range map[string]*Engine{"batched": bat, "parallel-1": par1, "parallel-4": par4} {
					if err := e.CheckInvariants(); err != nil {
						t.Fatalf("%s invariants after flush: %v (ops %v)", name, err, ops)
					}
				}
			}
		}
		for step, b := range ops {
			u := graph.Vertex(b % n)
			v := graph.Vertex((b / n) % n)
			if u == v {
				continue
			}
			del := en.HasEdge(u, v)
			if del {
				checkChangeLog(t, "per-op", en, func() { en.DeleteEdge(u, v) })
				te.DeleteEdge(u, v)
			} else {
				checkChangeLog(t, "per-op", en, func() { en.InsertEdge(u, v) })
				te.InsertEdge(u, v)
			}
			assertAll(step)
			pending = append(pending, EdgeOp{U: u, V: v, Del: del})
			if len(pending) == chunk {
				flush()
			}
		}
		flush()
		want := core.Decompose(en.Graph()).EdgeKappas()
		got := en.EdgeKappas()
		if len(got) != len(want) {
			t.Fatalf("edge count drift: %d vs %d", len(got), len(want))
		}
		for e, k := range want {
			if got[e] != k {
				t.Fatalf("κ(%v) = %d, recompute says %d (ops %v)", e, got[e], k, ops)
			}
		}
		for name, eng := range map[string]*Engine{"batched": bat, "parallel-1": par1, "parallel-4": par4} {
			eGot := eng.EdgeKappas()
			if len(eGot) != len(want) {
				t.Fatalf("%s edge count drift: %d vs %d (ops %v)", name, len(eGot), len(want), ops)
			}
			for e, k := range want {
				if eGot[e] != k {
					t.Fatalf("%s κ(%v) = %d, recompute says %d (ops %v)", name, e, eGot[e], k, ops)
				}
			}
			if err := eng.VerifyConsistency(); err != nil {
				t.Fatalf("%s engine: %v (ops %v)", name, err, ops)
			}
			if eng.Version() != bat.Version() {
				t.Fatalf("%s version %d, batched version %d (ops %v)", name, eng.Version(), bat.Version(), ops)
			}
		}
		if err := te.CheckInvariants(); err != nil {
			t.Fatalf("tracked invariants: %v (ops %v)", err, ops)
		}
	})
}

// checkChangeLog runs one batch through apply and checks the engine's
// netted change log against the κ diff, keyed by external edge, of the
// frozen views taken before and after it.
func checkChangeLog(t *testing.T, arm string, en *Engine, apply func()) {
	t.Helper()
	s0, k0 := en.FreezeView()
	apply()
	s1, k1 := en.FreezeView()
	old := make(map[graph.Edge]int32, len(k0))
	for i, k := range k0 {
		old[s0.EdgeAt(int32(i))] = k
	}
	var want []KappaChange
	for i, k := range k1 {
		e := s1.EdgeAt(int32(i))
		ko, ok := old[e]
		delete(old, e)
		if !ok {
			ko = -1
		}
		if ko != k {
			want = append(want, KappaChange{E: e, From: ko, To: k})
		}
	}
	for e, ko := range old {
		want = append(want, KappaChange{E: e, From: ko, To: -1})
	}
	slices.SortFunc(want, func(a, b KappaChange) int {
		if a.E.Less(b.E) {
			return -1
		}
		if b.E.Less(a.E) {
			return 1
		}
		return 0
	})
	if got := NetChanges(en.BatchChanges()); !slices.Equal(got, want) {
		t.Fatalf("%s: netted change log %v, κ diff of the frozen views %v", arm, got, want)
	}
}

package dynamic

import (
	"reflect"
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
// TrackedEngine (whose witness invariants are checked too), all over a
// base of isolated vertices that spreads the universe across row blocks.
// Toggles are resolved into explicit insert/delete ops against the
// per-op engine's state, so every engine sees the same operation stream.
// Bytes from 200 up are not plain toggles: 200–223 toggle an edge to one
// of three fresh vertices outside the universe, 224–239 delete up to
// three edges in one batch, so the highest edge ids move into the
// holes, and 240–255 remove a vertex; the last two are applied to every
// engine at once, after the pending chunk. After every batch on every
// arm, checkBatch holds the engine's frozen views to the oracles it
// lists.
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
		// Universe vertex k is external id k*pad, and the ids between are
		// isolated vertices: a fresh engine numbers positions by
		// ascending id, so every universe vertex starts in a row block of
		// its own and a stale block in a view is visible to the oracles.
		const n, pad = 10, 16
		vert := func(k int) graph.Vertex {
			if k >= n {
				return graph.Vertex(n*pad + k - n) // fresh, appended at the end
			}
			return graph.Vertex(k * pad)
		}
		base := func() *graph.Graph {
			g := graph.New()
			for v := graph.Vertex(0); v < n*pad; v++ {
				g.AddVertex(v)
			}
			return g
		}
		en := NewEngine(base())
		bat := NewEngine(base())
		par1 := NewEngine(base())
		par4 := NewEngine(base())
		te := NewTrackedEngine(base())
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
			checkBatch(t, "batched", bat, func() { bat.ApplyBatch(pending) })
			checkBatch(t, "parallel-1", par1, func() { par1.ApplyBatchParallel(pending, 1) })
			checkBatch(t, "parallel-4", par4, func() { par4.ApplyBatchParallel(pending, 4) })
			pending = pending[:0]
			if debugChecks {
				for name, e := range map[string]*Engine{"batched": bat, "parallel-1": par1, "parallel-4": par4} {
					if err := e.CheckInvariants(); err != nil {
						t.Fatalf("%s invariants after flush: %v (ops %v)", name, err, ops)
					}
				}
			}
		}
		// everywhere applies one operation to every engine at once.
		everywhere := func(op func(*Engine)) {
			flush()
			for name, e := range map[string]*Engine{"per-op": en, "batched": bat, "parallel-1": par1, "parallel-4": par4} {
				checkBatch(t, name, e, func() { op(e) })
			}
			op(te.Engine)
		}
		for step, b := range ops {
			switch {
			case b >= 240:
				// Only a present vertex: removing an absent one runs no
				// batch, so there is no change log to check.
				if v := vert(int(b-240) % (n + 3)); en.HasVertex(v) {
					everywhere(func(e *Engine) { e.RemoveVertex(v) })
					assertAll(step)
				}
				continue
			case b >= 224:
				edges := en.Graph().Edges()
				var dels []EdgeOp
				for i := int(b - 224); i < len(edges) && len(dels) < 3; i += 2 {
					dels = append(dels, EdgeOp{U: edges[i].U, V: edges[i].V, Del: true})
				}
				everywhere(func(e *Engine) { e.ApplyBatch(dels) })
				assertAll(step)
				continue
			}
			u, v := vert(int(b%n)), vert(int(b/n)%n)
			if b >= 200 {
				v = vert(n + int(b%3))
			}
			if u == v {
				continue
			}
			del := en.HasEdge(u, v)
			if del {
				checkBatch(t, "per-op", en, func() { en.DeleteEdge(u, v) })
				te.DeleteEdge(u, v)
			} else {
				checkBatch(t, "per-op", en, func() { en.InsertEdge(u, v) })
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

// checkBatch runs one batch (or vertex removal) through apply and holds
// the engine to its frozen views taken before and after it:
//   - the netted change log equals the κ diff, keyed by external edge,
//     of the two views;
//   - the new view, built from the one before, equals a from-scratch
//     freeze of the same engine by external ids (graph.DiffViews), and
//     its κ equals the engine's;
//   - its oriented half lists every triangle once, with per-edge support
//     equal to FreezeStatic(Materialize());
//   - the view taken before is unchanged, against a deep copy taken
//     before the batch;
//   - a second FreezeView with nothing changed returns the same view and
//     κ.
func checkBatch(t *testing.T, arm string, en *Engine, apply func()) {
	t.Helper()
	s0, k0 := en.FreezeView()
	img0 := imageOf(s0, k0)
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
	if err := graph.DiffViews(s1, en.d.FreezeFresh()); err != nil {
		t.Fatalf("%s: view differs from a from-scratch freeze: %v", arm, err)
	}
	if err := en.checkView(s1, k1); err != nil {
		t.Fatalf("%s: %v", arm, err)
	}
	checkOriented(t, arm, s1)
	if !reflect.DeepEqual(imageOf(s0, k0), img0) {
		t.Fatalf("%s: the view frozen before the batch changed", arm)
	}
	if s2, k2 := en.FreezeView(); s2 != s1 || len(k2) != len(k1) || (len(k1) > 0 && &k2[0] != &k1[0]) {
		t.Fatalf("%s: a FreezeView with nothing changed built a new view", arm)
	}
}

// viewImage is a deep copy of a view and its κ, read through the view's
// accessors: vertex ids, rows, edge endpoints, each edge's oriented
// triangles (which pin the out-rows) and κ.
type viewImage struct {
	orig        []graph.Vertex
	nbr, eid    [][]int32
	edges       []graph.Edge
	tris        [][]int32
	kappa       []int32
	vertexIndex []int32
}

func imageOf(s *graph.Static, kappa []int32) viewImage {
	img := viewImage{orig: slices.Clone(s.OrigID), kappa: slices.Clone(kappa)}
	for p := int32(0); int(p) < s.NumVertices(); p++ {
		nbr, eid := s.Row(p)
		img.nbr = append(img.nbr, slices.Clone(nbr))
		img.eid = append(img.eid, slices.Clone(eid))
		q, _ := s.PosOf(s.OrigID[p])
		img.vertexIndex = append(img.vertexIndex, q)
	}
	for i := int32(0); int(i) < s.NumEdges(); i++ {
		img.edges = append(img.edges, s.EdgeAt(i))
		var tris []int32
		s.ForEachOrientedTriangle(i, func(e1, e2 int32) bool {
			tris = append(tris, e1, e2)
			return true
		})
		img.tris = append(img.tris, tris)
	}
	return img
}

// checkOriented checks that the oriented half of s lists every triangle
// exactly once, with per-edge support equal to a flat freeze of the same
// graph.
func checkOriented(t *testing.T, arm string, s *graph.Static) {
	t.Helper()
	ref := graph.FreezeStatic(s.Materialize())
	seen := make(map[graph.Triangle]bool)
	support := make([]int, s.NumEdges())
	for i := int32(0); int(i) < s.NumEdges(); i++ {
		e := s.EdgeAt(i)
		s.ForEachOrientedTriangle(i, func(e1, e2 int32) bool {
			x := s.EdgeAt(e1)
			w := x.U
			if e.Has(w) {
				w = x.V
			}
			tri := graph.NewTriangle(e.U, e.V, w)
			if seen[tri] {
				t.Fatalf("%s: oriented listing repeats triangle %v", arm, tri)
			}
			seen[tri] = true
			support[i]++
			support[e1]++
			support[e2]++
			return true
		})
	}
	if int64(len(seen)) != ref.TriangleCount() {
		t.Fatalf("%s: oriented listing has %d triangles, the graph %d", arm, len(seen), ref.TriangleCount())
	}
	for i, sup := range support {
		e := s.EdgeAt(int32(i))
		if want := ref.Support(ref.EdgeOf(e)); sup != want {
			t.Fatalf("%s: oriented support of %v is %d, want %d", arm, e, sup, want)
		}
	}
}

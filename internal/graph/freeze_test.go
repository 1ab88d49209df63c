package graph

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// checkFrozen verifies the full Static contract on a frozen view: CSR
// shape, sorted rows, endpoint/edge-id cross-consistency, edge ids equal
// to the dense ones, and structural agreement with an independent
// Graph-based freeze of the same substrate.
func checkFrozen(t *testing.T, d *Dense, s *Static) {
	t.Helper()
	if s.NumVertices() != d.NumVertices() || s.NumEdges() != d.NumEdges() {
		t.Fatalf("size mismatch: frozen %d/%d vs dense %d/%d",
			s.NumVertices(), s.NumEdges(), d.NumVertices(), d.NumEdges())
	}
	n := s.NumVertices()
	entries := 0
	for u := int32(0); u < int32(n); u++ {
		row, ids := s.Row(u)
		entries += len(row)
		for k, w := range row {
			if k > 0 && row[k-1] >= w {
				t.Fatalf("row %d not strictly sorted at %d", u, k)
			}
			eid := ids[k]
			a, b := u, w
			if a > b {
				a, b = b, a
			}
			if eu, ev := s.Endpoints(eid); eu != a || ev != b {
				t.Fatalf("edge-id row %d nbr %d: edge %d has endpoints (%d,%d), want (%d,%d)",
					u, w, eid, eu, ev, a, b)
			}
		}
	}
	if entries != 2*s.NumEdges() {
		t.Fatalf("rows hold %d entries, want %d", entries, 2*s.NumEdges())
	}
	for i := int32(0); int(i) < s.NumEdges(); i++ {
		if u, v := s.Endpoints(i); u >= v {
			t.Fatalf("EdgeU ≥ EdgeV at edge %d", i)
		}
		if got, want := s.EdgeAt(i), d.EdgeAt(i); got != want {
			t.Fatalf("edge %d: frozen edge %v, dense edge %v", i, got, want)
		}
	}
	for p, v := range s.OrigID {
		if q, ok := s.PosOf(v); !ok || q != int32(p) {
			t.Fatalf("PosOf(%d) = %d, %v; want %d", v, q, ok, p)
		}
		if !d.HasVertex(v) {
			t.Fatalf("frozen vertex %d not live in dense", v)
		}
	}
	// Structural parity with the Graph-based freeze: triangle census and
	// every per-edge support agree, independent of edge-id numbering.
	ref := FreezeStatic(d.Materialize())
	if got, want := s.TriangleCount(), ref.TriangleCount(); got != want {
		t.Fatalf("TriangleCount = %d, want %d", got, want)
	}
	for i := int32(0); int(i) < s.NumEdges(); i++ {
		e := s.EdgeAt(i)
		ri := ref.EdgeOf(e)
		if ri < 0 {
			t.Fatalf("edge %v missing from reference freeze", e)
		}
		if got, want := s.Support(i), ref.Support(ri); got != want {
			t.Fatalf("Support(%v) = %d, want %d", e, got, want)
		}
	}
}

// TestFreezePreservesDenseIDs checks that freezing a hole-free Dense is
// the identity relabeling: every array of the view matches a Graph-based
// FreezeStatic exactly (the dense ids were adopted from one).
func TestFreezePreservesDenseIDs(t *testing.T) {
	g := FromPairs(1, 2, 2, 3, 3, 1, 3, 4, 4, 5, 5, 3, 1, 9)
	d := NewDenseFromStatic(FreezeStatic(g))
	s, _ := d.Freeze()
	staticsEqual(t, s, FreezeStatic(g))
	checkFrozen(t, d, s)
}

// TestFreezeCompactsFreeSlots punches holes in the edge ids (a removed
// mid-range edge) and the vertex slots (a removed vertex), compacts the
// edge ids, and checks the frozen view is hole-free and structurally
// exact.
func TestFreezeCompactsFreeSlots(t *testing.T) {
	d := NewDense()
	for u := Vertex(1); u <= 5; u++ {
		for v := u + 1; v <= 5; v++ {
			d.AddEdgeV(u, v)
		}
	}
	d.AddEdgeV(5, 10)
	d.RemoveEdgeByID(d.EdgeIDV(2, 4))
	d.RemoveEdgeByID(d.EdgeIDV(5, 10))
	d.RemoveVertexV(10)
	if d.EdgeCap() == d.NumEdges() || d.VertexCap() == d.NumVertices() {
		t.Fatal("test graph has no holes to compact")
	}
	d.CompactEdges(nil)
	s, _ := d.Freeze()
	checkFrozen(t, d, s)
}

// TestFreezeRandomChurn freezes after a long randomized insert/delete
// stream (so the free lists are thoroughly shuffled), checks the contract,
// then keeps churning and verifies the frozen view never moves.
func TestFreezeRandomChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := NewDense()
	const nv = 20
	churn := func(steps int) {
		for i := 0; i < steps; i++ {
			u := Vertex(rng.Intn(nv))
			v := Vertex(rng.Intn(nv))
			if u == v {
				continue
			}
			if eid := d.EdgeIDV(u, v); eid >= 0 {
				d.RemoveEdgeByID(eid)
			} else {
				d.AddEdgeV(u, v)
			}
		}
	}
	churn(1500)
	d.CompactEdges(nil)
	s, _ := d.Freeze()
	checkFrozen(t, d, s)

	// The view shares nothing with the substrate.
	tris := s.TriangleCount()
	before := flatOf(s)
	churn(300)
	if s.TriangleCount() != tris || !reflect.DeepEqual(before, flatOf(s)) {
		t.Fatal("frozen view changed under substrate churn")
	}
}

// sameChunk reports whether two chunks are the same storage.
func sameChunk(a, b rowChunk) bool { return &a.ptr[0] == &b.ptr[0] }

// checkSharing asserts that next re-froze exactly the row blocks holding
// a position in touched, and shares every other block with prev.
func checkSharing(t *testing.T, prev, next *Static, touched ...int32) {
	t.Helper()
	want := make(map[int]bool)
	for _, p := range touched {
		want[int(p>>blockShift)] = true
	}
	for b := range next.rows {
		if shared := sameChunk(prev.rows[b], next.rows[b]); shared == want[b] {
			t.Errorf("block %d: shared = %v, want %v", b, shared, !want[b])
		}
	}
}

// TestFreezeSharesUntouchedChunks checks what consecutive views share.
// Inserting one edge between two low-degree vertices re-freezes only the
// blocks of its endpoints, and copies only the endpoint page its new id
// lands in. Deleting an edge moves the highest id into the hole, which
// also re-freezes the moved edge's endpoint blocks. Freezing with
// nothing changed returns the same view.
func TestFreezeSharesUntouchedChunks(t *testing.T) {
	g := randomGraph(400, 0.02, 5)
	d := NewDenseFromStatic(FreezeStatic(g))
	prev, _ := d.Freeze()
	if again, _ := d.Freeze(); again != prev {
		t.Fatal("a freeze with nothing changed built a new view")
	}

	// The two lowest-degree non-adjacent vertices in different blocks;
	// positions are dense ids, and dense ids are FreezeStatic's.
	byDeg := make([]int32, prev.NumVertices())
	for p := range byDeg {
		byDeg[p] = int32(p)
	}
	slices.SortStableFunc(byDeg, func(a, b int32) int { return prev.Degree(a) - prev.Degree(b) })
	u, v := byDeg[0], int32(-1)
	for _, w := range byDeg[1:] {
		if w>>blockShift != u>>blockShift && prev.EdgeIndex(u, w) < 0 {
			v = w
			break
		}
	}
	d.AddEdgeV(d.OrigOf(u), d.OrigOf(v))
	next, ids := d.Freeze()
	if ids.All {
		t.Fatal("an insert rebuilt the view from scratch")
	}
	if err := DiffViews(next, d.FreezeFresh()); err != nil {
		t.Fatal(err)
	}
	checkSharing(t, prev, next, u, v)
	id := next.EdgeIndex(u, v)
	if int(id) != prev.NumEdges() || !slices.Equal(ids.Changed, []int32{id}) {
		t.Fatalf("new edge got id %d, changed %v; want id %d alone", id, ids.Changed, prev.NumEdges())
	}
	for p := range prev.edgeU {
		if shared := &prev.edgeU[p][0] == &next.edgeU[p][0]; shared == (p == int(id>>pageShift)) {
			t.Errorf("endpoint page %d: shared = %v", p, shared)
		}
	}

	// Delete edge 0: the top id moves into it.
	prev = next
	top := prev.EdgeAt(int32(prev.NumEdges() - 1))
	a, b := prev.Endpoints(0)
	tu, tv := prev.Endpoints(int32(prev.NumEdges() - 1))
	d.RemoveEdgeByID(d.EdgeIDV(prev.OrigID[a], prev.OrigID[b]))
	d.CompactEdges(nil)
	next, ids = d.Freeze()
	if err := DiffViews(next, d.FreezeFresh()); err != nil {
		t.Fatal(err)
	}
	if next.NumEdges() != prev.NumEdges()-1 || next.EdgeAt(0) != top || !slices.Equal(ids.Changed, []int32{0}) {
		t.Fatalf("after deleting edge 0: %d edges, edge 0 = %v, changed %v; want %d, %v, [0]",
			next.NumEdges(), next.EdgeAt(0), ids.Changed, prev.NumEdges()-1, top)
	}
	checkSharing(t, prev, next, a, b, tu, tv)
}

package graph

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// TestDenseRandomOpsMirrorsGraph drives a Dense and graphModel, an edge
// set with a vertex set, through the same randomized insert/delete stream
// and checks that every membership query, count, and triangle listing
// agrees.
func TestDenseRandomOpsMirrorsGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := NewDense()
	m := newGraphModel()
	const nv = 24
	for step := 0; step < 4000; step++ {
		u := Vertex(rng.Intn(nv))
		v := Vertex(rng.Intn(nv))
		if u == v {
			continue
		}
		if m.hasEdge(u, v) {
			eid := d.EdgeIDV(u, v)
			if eid < 0 {
				t.Fatalf("step %d: edge {%d,%d} in the model but not Dense", step, u, v)
			}
			d.RemoveEdgeByID(eid)
			m.removeEdge(u, v)
		} else {
			if _, added := d.AddEdgeV(u, v); !added {
				t.Fatalf("step %d: Dense had edge {%d,%d} that the model lacked", step, u, v)
			}
			m.addEdge(u, v)
		}
		if d.NumEdges() != len(m.edges) {
			t.Fatalf("step %d: NumEdges %d != %d", step, d.NumEdges(), len(m.edges))
		}
	}

	// Every model edge resolves in Dense with consistent endpoints.
	for _, e := range m.sortedEdges() {
		eid := d.EdgeIDV(e.U, e.V)
		if eid < 0 {
			t.Fatalf("edge %v missing from Dense", e)
		}
		if !d.EdgeLive(eid) {
			t.Fatalf("edge %v id %d not live", e, eid)
		}
		if got := d.EdgeAt(eid); got != e {
			t.Fatalf("EdgeAt(%d) = %v, want %v", eid, got, e)
		}
	}
	// Triangle kernel agrees with the model on every edge.
	for _, e := range m.sortedEdges() {
		want := m.common(e.U, e.V)
		if want == nil {
			want = []Vertex{}
		}
		du, _ := d.DenseOf(e.U)
		dv, _ := d.DenseOf(e.V)
		got := []Vertex{}
		d.ForEachTriangleEdgeD(du, dv, func(w, e1, e2 int32) bool {
			ow := d.OrigOf(w)
			got = append(got, ow)
			if a := d.EdgeAt(e1); a != NewEdge(e.U, ow) && a != NewEdge(e.V, ow) {
				t.Fatalf("e1 of triangle {%v,%d}: got %v", e, ow, a)
			}
			if b := d.EdgeAt(e2); b != NewEdge(e.V, ow) {
				t.Fatalf("e2 of triangle {%v,%d}: got %v, want %v", e, ow, b, NewEdge(e.V, ow))
			}
			return true
		})
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("triangles on %v: got thirds %v, want %v", e, got, want)
		}
	}
	// Materialize copies the graph into a Graph that answers like the
	// model, with d's rows' invariants.
	checkGraph(t, "Materialize", d.Materialize(), m)
}

// TestDenseEdgeIDReuse checks the allocator recycles freed ids LIFO and
// keeps ids packed below EdgeCap.
func TestDenseEdgeIDReuse(t *testing.T) {
	d := NewDense()
	e0, _ := d.AddEdgeV(1, 2)
	e1, _ := d.AddEdgeV(2, 3)
	e2, _ := d.AddEdgeV(3, 1)
	if e0 != 0 || e1 != 1 || e2 != 2 {
		t.Fatalf("fresh ids = %d,%d,%d, want 0,1,2", e0, e1, e2)
	}
	d.RemoveEdgeByID(e1)
	if d.EdgeLive(e1) {
		t.Fatal("freed id still live")
	}
	r, added := d.AddEdgeV(5, 6)
	if !added || r != e1 {
		t.Fatalf("recycled id = %d (added=%v), want %d", r, added, e1)
	}
	if d.EdgeCap() != 3 {
		t.Fatalf("EdgeCap = %d, want 3", d.EdgeCap())
	}
	if got := d.EdgeAt(r); got != NewEdge(5, 6) {
		t.Fatalf("EdgeAt(recycled) = %v", got)
	}
}

// TestDenseVertexReuse checks vertex slot recycling and the isolated-only
// removal contract.
func TestDenseVertexReuse(t *testing.T) {
	d := NewDense()
	d.AddEdgeV(10, 20)
	p20, _ := d.DenseOf(20)
	if d.RemoveVertexV(99) {
		t.Fatal("removed an absent vertex")
	}
	eid := d.EdgeIDV(10, 20)
	d.RemoveEdgeByID(eid)
	if !d.RemoveVertexV(20) {
		t.Fatal("failed to remove isolated vertex")
	}
	if d.HasVertex(20) {
		t.Fatal("vertex 20 still present")
	}
	p, added := d.Intern(33)
	if !added || p != p20 {
		t.Fatalf("Intern(33) = slot %d (added=%v), want recycled slot %d", p, added, p20)
	}
	if d.NumVertices() != 2 {
		t.Fatalf("NumVertices = %d, want 2", d.NumVertices())
	}

	defer func() {
		if recover() == nil {
			t.Fatal("RemoveVertexV on a non-isolated vertex did not panic")
		}
	}()
	d.AddEdgeV(33, 10)
	d.RemoveVertexV(33)
}

// TestDenseFromStatic checks that NewDenseFromStatic preserves the Static
// view's dense vertex positions and edge ids exactly, and that the copy is
// independently mutable.
func TestDenseFromStatic(t *testing.T) {
	g := FromPairs(1, 2, 2, 3, 3, 1, 3, 4, 4, 5, 5, 3, 1, 9)
	s := FreezeStatic(g)
	d := NewDenseFromStatic(s)

	if d.NumVertices() != s.NumVertices() || d.NumEdges() != s.NumEdges() {
		t.Fatalf("size mismatch: %d/%d vs %d/%d",
			d.NumVertices(), d.NumEdges(), s.NumVertices(), s.NumEdges())
	}
	for i := 0; i < s.NumEdges(); i++ {
		se := s.EdgeAt(int32(i))
		if ge := d.EdgeAt(int32(i)); ge != se {
			t.Fatalf("edge id %d: Dense %v != Static %v", i, ge, se)
		}
		if got := d.EdgeIDV(se.U, se.V); got != int32(i) {
			t.Fatalf("EdgeIDV(%v) = %d, want %d", se, got, i)
		}
	}
	for p, v := range s.OrigID {
		if dp, ok := d.DenseOf(v); !ok || dp != int32(p) {
			t.Fatalf("DenseOf(%d) = %d, want %d", v, dp, p)
		}
	}

	// Mutating the Dense copy must not disturb preserved ids: grow a row
	// past its borrowed segment, then delete an original edge.
	d.AddEdgeV(1, 100)
	d.AddEdgeV(1, 101)
	d.AddEdgeV(1, 102)
	d.RemoveEdgeByID(d.EdgeIDV(3, 4))
	if d.EdgeIDV(3, 4) >= 0 {
		t.Fatal("deleted edge still resolves")
	}
	for _, e := range []Edge{NewEdge(1, 2), NewEdge(3, 5), NewEdge(1, 9)} {
		if d.EdgeIDV(e.U, e.V) < 0 {
			t.Fatalf("edge %v lost after mutation", e)
		}
	}
}

// TestDenseSkewedTriangleMerge exercises the galloping path: one endpoint
// with a fat row against a degree-2 endpoint.
func TestDenseSkewedTriangleMerge(t *testing.T) {
	d := NewDense()
	// Hub 0 connected to 1..100; vertex 200 connected to 0 and to a few
	// of the hub's neighbors — each gives a triangle on edge {0, 200}.
	for v := Vertex(1); v <= 100; v++ {
		d.AddEdgeV(0, v)
	}
	d.AddEdgeV(0, 200)
	wantThirds := []Vertex{7, 42, 99}
	for _, w := range wantThirds {
		d.AddEdgeV(200, w)
	}
	du, _ := d.DenseOf(0)
	dv, _ := d.DenseOf(200)
	var got []Vertex
	d.ForEachTriangleEdgeD(du, dv, func(w, e1, e2 int32) bool {
		got = append(got, d.OrigOf(w))
		if d.EdgeIDD(du, w) != e1 || d.EdgeIDD(dv, w) != e2 {
			t.Fatalf("edge ids wrong for third %d", d.OrigOf(w))
		}
		return true
	})
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if !reflect.DeepEqual(got, wantThirds) {
		t.Fatalf("thirds = %v, want %v", got, wantThirds)
	}
}

// sizeBytesByWalk is the reference for SizeBytes: the same estimate with
// the row capacities summed by walking every row.
func sizeBytesByWalk(d *Dense) int64 {
	n := int64(len(d.orig))*8 + int64(len(d.vlive)) +
		int64(len(d.edgeU)+len(d.edgeV)+len(d.freeE)+len(d.freeV))*4 +
		int64(len(d.pos))*16 + int64(len(d.rows))*24
	for _, row := range d.rows {
		n += int64(cap(row)) * 8
	}
	return n
}

// TestDenseSizeBytesMatchesWalk checks the running row-capacity total
// against a walk of the rows after every step of random churn that
// removes vertices and reuses their slots, with freezes in between.
func TestDenseSizeBytesMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := NewDenseFromStatic(FreezeStatic(randomGraph(30, 0.2, 4)))
	const nv = 40
	interned, removed := d.NumVertices(), 0
	for step := 0; step < 5000; step++ {
		u, v := Vertex(rng.Intn(nv)), Vertex(rng.Intn(nv))
		switch {
		case u == v:
			du, ok := d.DenseOf(u)
			if !ok {
				continue
			}
			for d.DegreeD(du) > 0 {
				d.ForEachNeighborD(du, func(_, eid int32) bool {
					d.RemoveEdgeByID(eid)
					return false
				})
			}
			d.RemoveVertexV(u)
			removed++
		case d.HasEdgeV(u, v):
			d.RemoveEdgeByID(d.EdgeIDV(u, v))
		default:
			before := d.NumVertices()
			d.AddEdgeV(u, v)
			interned += d.NumVertices() - before
		}
		if step%97 == 0 {
			d.Freeze()
		}
		if got, want := d.SizeBytes(), sizeBytesByWalk(d); got != want {
			t.Fatalf("step %d: SizeBytes = %d, walk says %d", step, got, want)
		}
	}
	if removed == 0 || interned <= d.VertexCap() {
		t.Fatalf("churn removed %d vertices and interned %d into %d slots: no slot was reused",
			removed, interned, d.VertexCap())
	}
}

// TestMergeRowsMatchesIntersection checks the shared two-row merge on
// random row pairs, balanced and skewed past the galloping switch in
// both argument orders, against a brute-force intersection: every
// common neighbor once, ascending, with its edge id from each row —
// including matches on the last entry of the larger row.
func TestMergeRowsMatchesIntersection(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	row := func(n, span int) []int64 {
		var out []int64
		for _, w := range rng.Perm(span)[:n] {
			out = append(out, packLive(int32(w), int32(rng.Intn(1000))))
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	for trial := 0; trial < 500; trial++ {
		span := 80 + rng.Intn(60)
		small, large := 1+rng.Intn(4), 1+rng.Intn(4)
		if trial%2 == 0 {
			large = 17*small + rng.Intn(span-17*small+1)
		}
		a, b := row(small, span), row(large, span)
		if trial%3 == 0 {
			// Share the larger row's last two neighbors.
			for k := 1; k <= min(2, len(a), len(b)); k++ {
				a[len(a)-k] = packLive(int32(b[len(b)-k]>>32), 7)
			}
			sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
			a = slices.CompactFunc(a, func(x, y int64) bool { return x>>32 == y>>32 })
		}
		for _, pair := range [][2][]int64{{a, b}, {b, a}} {
			var want [][3]int32
			for _, x := range pair[0] {
				for _, y := range pair[1] {
					if x>>32 == y>>32 {
						want = append(want, [3]int32{int32(x >> 32), int32(uint32(x)), int32(uint32(y))})
					}
				}
			}
			var got [][3]int32
			mergeRows(pair[0], pair[1], func(w, ea, eb int32) bool {
				got = append(got, [3]int32{w, ea, eb})
				return true
			})
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d: mergeRows gave %v, want %v", trial, got, want)
			}
		}
	}
}

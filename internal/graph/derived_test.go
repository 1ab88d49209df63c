package graph_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"trikcore/internal/dataset"
	"trikcore/internal/dynamic"
	"trikcore/internal/graph"
)

// TestEngineViewsOrientedHalf runs seeded churn on three engines over
// Astro-Author at 0.1: one applies each batch serially, the others
// through the epoch path at 2 and 4 workers. Every batch deletes more
// edges than it inserts, so the highest edge ids move into the holes,
// and joins a fresh vertex to both endpoints of an edge. Every view
// FreezeView publishes is held to three oracles: each position's out-row
// is its neighbors ranked above it by (degree, position); its triangle
// count is that of FreezeStatic over the same edges; and its WriteMapped
// bytes equal those of FreezeStatic over the same edges and read back
// through OpenMapped as the same graph (DiffViews). The serial path
// numbers dense slots differently from the epoch path, but epochs at 2
// and 4 workers must number them alike: their views hold the same vertex
// at each position and the same endpoints at each edge id.
func TestEngineViewsOrientedHalf(t *testing.T) {
	d, _ := dataset.ByName("Astro-Author")
	g := d.GenerateAt(0.1)
	fresh := slices.Max(g.Vertices()) + 1
	workers := []int{1, 2, 4}
	engines := make([]*dynamic.Engine, len(workers))
	for i := range engines {
		engines[i] = dynamic.NewEngine(g)
	}
	dir := t.TempDir()
	mapped := func(name string, s *graph.Static) []byte {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := graph.WriteMapped(path, s); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	check := func(step int, workers int, s *graph.Static) {
		t.Helper()
		for p := int32(0); int(p) < s.NumVertices(); p++ {
			gotN, gotE := s.OutRow(p)
			wantN, wantE := rankedAbove(s, p)
			if !slices.Equal(gotN, wantN) || !slices.Equal(gotE, wantE) {
				t.Fatalf("step %d, workers %d: out-row %d is %v %v, want %v %v", step, workers, p, gotN, gotE, wantN, wantE)
			}
		}
		edges := make([]graph.Edge, 0, s.NumEdges())
		s.ForEachEdgeID(func(i int32) bool {
			edges = append(edges, s.EdgeAt(i))
			return true
		})
		ref := graph.FreezeStatic(graph.FromEdges(edges))
		if got, want := s.TriangleCount(), ref.TriangleCount(); got != want {
			t.Fatalf("step %d, workers %d: TriangleCount = %d, FreezeStatic's %d", step, workers, got, want)
		}
		if !bytes.Equal(mapped("view.tkcg", s), mapped("ref.tkcg", ref)) {
			t.Fatalf("step %d, workers %d: WriteMapped bytes differ from FreezeStatic's over the same edges", step, workers)
		}
		m, err := graph.OpenMapped(filepath.Join(dir, "view.tkcg"))
		if err != nil {
			t.Fatalf("step %d, workers %d: %v", step, workers, err)
		}
		defer m.Close()
		if err := graph.DiffViews(m.Static(), s); err != nil {
			t.Fatalf("step %d, workers %d: mapped view: %v", step, workers, err)
		}
	}
	for i, en := range engines {
		s, _ := en.FreezeView() // the adopted FreezeStatic view
		check(-1, workers[i], s)
	}
	rng := rand.New(rand.NewSource(25))
	for step := 0; step < 12; step++ {
		s, _ := engines[0].FreezeView()
		n, m := s.NumVertices(), s.NumEdges()
		var ops []dynamic.EdgeOp
		for k := 6 + rng.Intn(10); k > 0; k-- {
			e := s.EdgeAt(int32(rng.Intn(m)))
			ops = append(ops, dynamic.EdgeOp{U: e.U, V: e.V, Del: true})
		}
		e := s.EdgeAt(int32(rng.Intn(m)))
		ops = append(ops, dynamic.EdgeOp{U: e.U, V: fresh}, dynamic.EdgeOp{U: e.V, V: fresh})
		fresh++
		for k := 0; k < 4; k++ {
			if u, v := s.OrigID[rng.Intn(n)], s.OrigID[rng.Intn(n)]; u != v {
				ops = append(ops, dynamic.EdgeOp{U: u, V: v})
			}
		}
		views := make([]*graph.Static, len(engines))
		for i, en := range engines {
			en.ApplyBatchContext(context.Background(), ops, workers[i])
			views[i], _ = en.FreezeView()
			check(step, workers[i], views[i])
		}
		if err := sameNumbering(views[2], views[1]); err != nil {
			t.Fatalf("step %d: workers 4 against workers 2: %v", step, err)
		}
	}
}

// sameNumbering reports the first position or edge id at which two views
// differ: the vertex a position holds, or the endpoints an edge id names.
func sameNumbering(got, want *graph.Static) error {
	if !slices.Equal(got.OrigID, want.OrigID) {
		return fmt.Errorf("positions hold different vertices")
	}
	if got.NumEdges() != want.NumEdges() {
		return fmt.Errorf("%d edges, want %d", got.NumEdges(), want.NumEdges())
	}
	for i := int32(0); int(i) < got.NumEdges(); i++ {
		if got.EdgeAt(i) != want.EdgeAt(i) {
			return fmt.Errorf("edge %d is %v, want %v", i, got.EdgeAt(i), want.EdgeAt(i))
		}
	}
	return nil
}

// rankedAbove returns p's neighbors that rank above it by (degree,
// position), ascending, with their edge ids: the out-row oracle.
func rankedAbove(s *graph.Static, p int32) (nbr, eid []int32) {
	row, ids := s.Row(p)
	for k, w := range row {
		if dp, dw := s.Degree(p), s.Degree(w); dp < dw || (dp == dw && p < w) {
			nbr, eid = append(nbr, w), append(eid, ids[k])
		}
	}
	return nbr, eid
}

package graph_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"trikcore/internal/dataset"
	"trikcore/internal/dynamic"
	"trikcore/internal/graph"
)

// TestEngineViewsOrientedHalf runs seeded churn on two engines over
// Astro-Author at 0.1, one applying each batch serially and one through
// the two-worker epoch path. Every batch deletes more edges than it
// inserts, so the highest edge ids move into the holes, and joins a
// fresh vertex to both endpoints of an edge. Every view FreezeView
// publishes is held to three oracles: each position's out-row is its
// neighbors ranked above it by (degree, position); its triangle count is
// that of FreezeStatic over the same edges; and its WriteMapped bytes
// read back as the same view (DiffViews). The SHA-256 over each engine's
// WriteMapped bytes, view after view from the flat-built first one, is
// pinned too.
func TestEngineViewsOrientedHalf(t *testing.T) {
	d, _ := dataset.ByName("Astro-Author")
	g := d.GenerateAt(0.1)
	fresh := slices.Max(g.Vertices()) + 1
	// The two paths number dense slots differently, so their views carry
	// the same graph under different ids, and each has its own digest.
	arms := []struct {
		workers int
		digest  string
		en      *dynamic.Engine
		h       hash.Hash
	}{
		{workers: 1, digest: "4a901131d2f0412dfe780c2f90b4dc482c2fd15dfd3b802c1a3aae99074876ed"},
		{workers: 2, digest: "4b97183a867b46a462f202c9754d50f337588f181a813c8a58860004a1a7d416"},
	}
	for i := range arms {
		arms[i].en = dynamic.NewEngine(g)
		arms[i].h = sha256.New()
	}
	dir := t.TempDir()
	check := func(step int, workers int, s *graph.Static, h hash.Hash) {
		t.Helper()
		for p := int32(0); int(p) < s.NumVertices(); p++ {
			gotN, gotE := s.OutRow(p)
			wantN, wantE := rankedAbove(s, p)
			if !slices.Equal(gotN, wantN) || !slices.Equal(gotE, wantE) {
				t.Fatalf("step %d, workers %d: out-row %d is %v %v, want %v %v", step, workers, p, gotN, gotE, wantN, wantE)
			}
		}
		if got, want := s.TriangleCount(), graph.FreezeStatic(s.Materialize()).TriangleCount(); got != want {
			t.Fatalf("step %d, workers %d: TriangleCount = %d, FreezeStatic's %d", step, workers, got, want)
		}
		path := filepath.Join(dir, "view.tkcg")
		if err := graph.WriteMapped(path, s); err != nil {
			t.Fatal(err)
		}
		back, err := graph.ReadMappedView(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := graph.DiffViews(back, s); err != nil {
			t.Fatalf("step %d, workers %d: mapped view: %v", step, workers, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(data)
	}
	for _, a := range arms {
		s, _ := a.en.FreezeView() // the adopted FreezeStatic view
		check(-1, a.workers, s, a.h)
	}
	rng := rand.New(rand.NewSource(25))
	for step := 0; step < 12; step++ {
		s, _ := arms[0].en.FreezeView()
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
		for _, a := range arms {
			a.en.ApplyBatchContext(context.Background(), ops, a.workers)
			v, _ := a.en.FreezeView()
			check(step, a.workers, v, a.h)
		}
	}
	for _, a := range arms {
		if got := hex.EncodeToString(a.h.Sum(nil)); got != a.digest {
			t.Errorf("workers %d: SHA-256 of the views' WriteMapped bytes = %s, want %s", a.workers, got, a.digest)
		}
	}
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

// Golden coverage for the mapped TKCG format on a paper-scale fixture:
// the mmap'd view must be indistinguishable, array for array, from
// freezing the same graph in memory. Lives in an external test package
// so it can draw the Astro stand-in from internal/dataset without an
// import cycle.
package graph_test

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"trikcore/internal/dataset"
	"trikcore/internal/graph"
)

func TestOpenMappedGoldenAstro(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale fixture")
	}
	d, ok := dataset.ByName("Astro-Author")
	if !ok {
		t.Fatal("Astro-Author dataset missing")
	}
	g := d.GenerateAt(0.2)
	want := graph.FreezeStatic(g)

	dir := t.TempDir()
	path := filepath.Join(dir, "astro.tkcg")
	if err := graph.WriteMapped(path, want); err != nil {
		t.Fatal(err)
	}
	m, err := graph.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	s := m.Static()

	if !slices.Equal(s.OrigID, want.OrigID) {
		t.Error("OrigID differs")
	}
	if s.NumEdges() != want.NumEdges() {
		t.Fatalf("mapped view has %d edges, FreezeStatic %d", s.NumEdges(), want.NumEdges())
	}
	for u := int32(0); int(u) < want.NumVertices(); u++ {
		gn, ge := s.Row(u)
		wn, we := want.Row(u)
		if !slices.Equal(gn, wn) || !slices.Equal(ge, we) {
			t.Fatalf("row %d differs between mapped view and FreezeStatic", u)
		}
	}
	for i := int32(0); int(i) < want.NumEdges(); i++ {
		gu, gv := s.Endpoints(i)
		wu, wv := want.Endpoints(i)
		if gu != wu || gv != wv {
			t.Fatalf("edge %d differs between mapped view and FreezeStatic", i)
		}
		var got, exp []int32
		s.ForEachOrientedTriangle(i, func(e1, e2 int32) bool { got = append(got, e1, e2); return true })
		want.ForEachOrientedTriangle(i, func(e1, e2 int32) bool { exp = append(exp, e1, e2); return true })
		if !slices.Equal(got, exp) {
			t.Fatalf("oriented triangles of edge %d differ between mapped view and FreezeStatic", i)
		}
	}

	// File-level determinism: re-serializing the frozen view reproduces
	// the mapped file byte for byte.
	again := filepath.Join(dir, "again.tkcg")
	if err := graph.WriteMapped(again, want); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("mapped serialization of the Astro fixture is not deterministic")
	}
}

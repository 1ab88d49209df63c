package graph

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// flatOf returns a deep copy of s as flat arrays, the mapped section
// layout.
func flatOf(s *Static) flatCSR {
	n, m := s.NumVertices(), s.NumEdges()
	f := flatCSR{
		orig:   make([]Vertex, n),
		rowPtr: make([]int32, n+1), adjNbr: make([]int32, 2*m), adjEID: make([]int32, 2*m),
		edgeU: make([]int32, m), edgeV: make([]int32, m),
		outPtr: make([]int32, n+1), outNbr: make([]int32, m), outEID: make([]int32, m),
	}
	s.flatten(f)
	return f
}

// staticsEqual reports whether two Static views hold identical arrays
// and agree on every vertex lookup.
func staticsEqual(t *testing.T, got, want *Static) {
	t.Helper()
	g, w := flatOf(got), flatOf(want)
	if !slices.Equal(g.orig, w.orig) {
		t.Errorf("OrigID differs: got %v want %v", g.orig, w.orig)
	}
	check := func(name string, g, w []int32) {
		t.Helper()
		if !slices.Equal(g, w) {
			t.Errorf("%s differs: got %v want %v", name, g, w)
		}
	}
	check("RowPtr", g.rowPtr, w.rowPtr)
	check("AdjNbr", g.adjNbr, w.adjNbr)
	check("AdjEdgeID", g.adjEID, w.adjEID)
	check("EdgeU", g.edgeU, w.edgeU)
	check("EdgeV", g.edgeV, w.edgeV)
	check("OutPtr", g.outPtr, w.outPtr)
	check("OutNbr", g.outNbr, w.outNbr)
	check("OutEdgeID", g.outEID, w.outEID)
	for p, v := range want.OrigID {
		if q, ok := got.PosOf(v); !ok || q != int32(p) {
			t.Errorf("PosOf(%d) = %d, %v; want %d", v, q, ok, p)
		}
	}
}

func TestWriteMappedOpenMappedRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *Graph
	}{
		{"k4", completeGraph(4)},
		{"sparse", randomGraph(60, 0.1, 1)},
		{"dense", randomGraph(40, 0.5, 2)},
		{"noncontiguous", func() *Graph {
			g := New()
			g.AddEdge(100, 7)
			g.AddEdge(7, 2000)
			g.AddEdge(100, 2000)
			g.AddEdge(5, 100)
			return g
		}()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := FreezeStatic(tc.g)
			path := filepath.Join(t.TempDir(), "g.tkcg")
			if err := WriteMapped(path, want); err != nil {
				t.Fatalf("WriteMapped: %v", err)
			}
			m, err := OpenMapped(path)
			if err != nil {
				t.Fatalf("OpenMapped: %v", err)
			}
			defer m.Close()
			staticsEqual(t, m.Static(), want)
			if m.SizeBytes() <= 0 {
				t.Errorf("SizeBytes = %d, want > 0", m.SizeBytes())
			}
			if m.Path() != path {
				t.Errorf("Path = %q, want %q", m.Path(), path)
			}
		})
	}
}

func TestBuildMappedFileMatchesFreeze(t *testing.T) {
	g := randomGraph(80, 0.15, 3)
	dir := t.TempDir()
	in := filepath.Join(dir, "edges.txt")

	// Write the edge list with duplicates, reversed orientations and
	// comments sprinkled in: the builder must normalize all of it.
	var sb strings.Builder
	sb.WriteString("# comment line\n% another\n\n")
	for i, e := range g.Edges() {
		if i%3 == 0 {
			fmt.Fprintf(&sb, "%d %d\n", e.V, e.U) // reversed
		}
		fmt.Fprintf(&sb, "%d %d\n", e.U, e.V)
		if i%5 == 0 {
			fmt.Fprintf(&sb, "%d %d\n", e.U, e.V) // duplicate
		}
	}
	if err := os.WriteFile(in, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	out := filepath.Join(dir, "g.tkcg")
	stats, err := BuildMappedFile(in, out)
	if err != nil {
		t.Fatalf("BuildMappedFile: %v", err)
	}
	if stats.Vertices != g.NumVertices() || stats.Edges != g.NumEdges() {
		t.Errorf("stats = %d vertices %d edges, want %d and %d",
			stats.Vertices, stats.Edges, g.NumVertices(), g.NumEdges())
	}
	if stats.Mentions <= int64(g.NumEdges()) {
		t.Errorf("Mentions = %d, want > %d (duplicates counted)", stats.Mentions, g.NumEdges())
	}

	m, err := OpenMapped(out)
	if err != nil {
		t.Fatalf("OpenMapped: %v", err)
	}
	defer m.Close()
	staticsEqual(t, m.Static(), FreezeStatic(g))
	if _, err := os.Stat(out + ".rows"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("scratch rows file survived the build: stat err = %v", err)
	}

	// The built file must be byte-identical to WriteMapped of the frozen
	// view: one canonical encoding per graph.
	direct := filepath.Join(dir, "direct.tkcg")
	if err := WriteMapped(direct, FreezeStatic(g)); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(direct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("BuildMappedFile and WriteMapped produced different bytes for the same graph")
	}
}

func TestBuildMappedFileRejectsSelfLoop(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "edges.txt")
	if err := os.WriteFile(in, []byte("1 2\n3 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := BuildMappedFile(in, filepath.Join(dir, "g.tkcg")); err == nil {
		t.Fatal("BuildMappedFile accepted a self-loop")
	}
}

func TestOpenMappedCorruption(t *testing.T) {
	g := randomGraph(30, 0.2, 4)
	path := filepath.Join(t.TempDir(), "g.tkcg")
	if err := WriteMapped(path, FreezeStatic(g)); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	reopen := func(t *testing.T, data []byte) error {
		t.Helper()
		p := filepath.Join(t.TempDir(), "bad.tkcg")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := OpenMapped(p)
		if err == nil {
			m.Close()
		}
		return err
	}

	t.Run("flipped payload byte", func(t *testing.T) {
		data := bytes.Clone(orig)
		data[mappedPageSize+4] ^= 0xff // inside the first section
		if err := reopen(t, data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if err := reopen(t, orig[:len(orig)-16]); !errors.Is(err, ErrCorrupt) {
			t.Errorf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("tampered section table", func(t *testing.T) {
		data := bytes.Clone(orig)
		data[mappedHeaderFixed+8]++ // first section's offset
		if err := reopen(t, data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("tiny file", func(t *testing.T) {
		if err := reopen(t, orig[:10]); !errors.Is(err, ErrCorrupt) {
			t.Errorf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("wrong magic", func(t *testing.T) {
		data := bytes.Clone(orig)
		data[0] = 'X'
		err := reopen(t, data)
		if err == nil {
			t.Fatal("opened a non-TKCG file")
		}
		if errors.Is(err, ErrCorrupt) {
			t.Errorf("wrong magic reported as ErrCorrupt: %v", err)
		}
	})
	t.Run("snapshot layout refused", func(t *testing.T) {
		p := filepath.Join(t.TempDir(), "snap.tkcg")
		if err := SaveBinaryFile(p, g); err != nil {
			t.Fatal(err)
		}
		m, err := OpenMapped(p)
		if err == nil {
			m.Close()
			t.Fatal("OpenMapped accepted a snapshot-layout file")
		}
	})
}

func TestMappedStaticRunsKernels(t *testing.T) {
	g := randomGraph(50, 0.25, 5)
	path := filepath.Join(t.TempDir(), "g.tkcg")
	want := FreezeStatic(g)
	if err := WriteMapped(path, want); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	s := m.Static()
	if got, wantN := s.TriangleCount(), want.TriangleCount(); got != wantN {
		t.Errorf("TriangleCount = %d, want %d", got, wantN)
	}
	for i := 0; i < s.NumEdges(); i++ {
		e := int32(i)
		if got, wantS := s.Support(e), want.Support(e); got != wantS {
			t.Fatalf("Support(%d) = %d, want %d", i, got, wantS)
		}
	}
}

func completeGraph(n int) *Graph {
	g := New()
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.AddEdge(Vertex(u), Vertex(v))
		}
	}
	return g
}

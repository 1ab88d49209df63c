package graph

import (
	"testing"
	"testing/quick"
)

func TestFreezeStaticBasics(t *testing.T) {
	g := FromPairs(10, 20, 10, 30, 20, 30, 30, 40)
	s := FreezeStatic(g)
	if s.NumVertices() != 4 || s.NumEdges() != 4 {
		t.Fatalf("got %d vertices, %d edges", s.NumVertices(), s.NumEdges())
	}
	// Dense ids follow sorted original ids: 10->0, 20->1, 30->2, 40->3.
	for i, want := range []Vertex{10, 20, 30, 40} {
		if s.OrigID[i] != want {
			t.Fatalf("OrigID[%d] = %d, want %d", i, s.OrigID[i], want)
		}
		if p, ok := s.PosOf(want); !ok || p != int32(i) {
			t.Fatalf("PosOf(%d) = %d, %v; want %d", want, p, ok, i)
		}
	}
	if s.EdgeIndex(0, 1) < 0 || s.EdgeIndex(1, 0) != s.EdgeIndex(0, 1) {
		t.Fatal("EdgeIndex not symmetric")
	}
	if s.EdgeIndex(0, 3) != -1 {
		t.Fatal("EdgeIndex of absent edge should be -1")
	}
	if s.Degree(2) != 3 {
		t.Fatalf("Degree(pos 2) = %d, want 3", s.Degree(2))
	}
}

func TestStaticSupportMatchesDynamic(t *testing.T) {
	g := randomGraph(40, 0.2, 7)
	s := FreezeStatic(g)
	for i := int32(0); i < int32(s.NumEdges()); i++ {
		e := s.EdgeAt(i)
		if got, want := s.Support(i), g.SupportE(e); got != want {
			t.Fatalf("edge %v: static support %d, dynamic %d", e, got, want)
		}
	}
}

func TestStaticTriangleCountMatchesDynamic(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := randomGraph(30, 0.25, seed)
		s := FreezeStatic(g)
		if got, want := s.TriangleCount(), TriangleCount(g); got != want {
			t.Fatalf("seed %d: static %d triangles, dynamic %d", seed, got, want)
		}
	}
}

func TestStaticCommonNeighborAscending(t *testing.T) {
	g := randomGraph(25, 0.4, 3)
	s := FreezeStatic(g)
	for i := int32(0); i < int32(s.NumEdges()); i++ {
		prev := int32(-1)
		u, v := s.Endpoints(i)
		s.ForEachCommonNeighbor(u, v, func(w int32) bool {
			if w <= prev {
				t.Fatalf("common neighbors not ascending: %d after %d", w, prev)
			}
			prev = w
			return true
		})
	}
}

func TestStaticEdgeAtRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(20, 0.3, seed)
		s := FreezeStatic(g)
		for i := int32(0); i < int32(s.NumEdges()); i++ {
			e := s.EdgeAt(i)
			if !g.HasEdgeE(e) {
				return false
			}
			if s.EdgeOf(e) != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestStaticIsImmutableSnapshot(t *testing.T) {
	g := FromPairs(1, 2, 2, 3)
	s := FreezeStatic(g)
	g.AddEdge(1, 3)
	if s.NumEdges() != 2 {
		t.Fatalf("Static changed after mutation: %d edges", s.NumEdges())
	}
}

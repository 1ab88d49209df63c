package graph

import (
	"math/rand"
	"testing"
)

// naiveTriangles enumerates, for the edge between dense positions u and v,
// every third vertex w closing a triangle, by the O(d²) definition: scan
// all vertices and test both adjacencies against the original graph. It is
// deliberately independent of the CSR layout under test.
func naiveTriangles(g *Graph, s *Static, u, v int32) []int32 {
	var out []int32
	for w := int32(0); w < int32(s.NumVertices()); w++ {
		if w == u || w == v {
			continue
		}
		if g.HasEdge(s.OrigID[u], s.OrigID[w]) && g.HasEdge(s.OrigID[v], s.OrigID[w]) {
			out = append(out, w)
		}
	}
	return out
}

// checkStaticInvariants validates the CSR layout against its contract:
// rows sorted and mirror-consistent, AdjEdgeID entries pointing at edges
// with the right endpoints, edge ids dense and canonical, and EdgeIndex
// agreeing with the graph's edge set.
func checkStaticInvariants(t *testing.T, g *Graph, s *Static) {
	t.Helper()
	n := s.NumVertices()
	m := s.NumEdges()
	if m != g.NumEdges() || n != g.NumVertices() {
		t.Fatalf("view has %d vertices / %d edges, graph has %d / %d",
			n, m, g.NumVertices(), g.NumEdges())
	}
	entries := 0
	for u := int32(0); u < int32(n); u++ {
		row, ids := s.Row(u)
		entries += len(row)
		if len(row) != g.Degree(s.OrigID[u]) {
			t.Fatalf("row %d has %d entries, degree is %d", u, len(row), g.Degree(s.OrigID[u]))
		}
		for k, w := range row {
			if k > 0 && row[k-1] >= w {
				t.Fatalf("row %d not strictly sorted at %d", u, k)
			}
			if w == u {
				t.Fatalf("row %d contains a self-loop", u)
			}
			id := ids[k]
			if id < 0 || id >= int32(m) {
				t.Fatalf("row %d entry %d: edge id %d out of range", u, k, id)
			}
			a, b := u, w
			if a > b {
				a, b = b, a
			}
			if eu, ev := s.Endpoints(id); eu != a || ev != b {
				t.Fatalf("edge-id row %d entry %d points at edge %d = (%d,%d), want (%d,%d)",
					u, k, id, eu, ev, a, b)
			}
		}
	}
	if entries != 2*m {
		t.Fatalf("rows hold %d entries, want %d", entries, 2*m)
	}
	for i := int32(0); i < int32(m); i++ {
		u, v := s.Endpoints(i)
		if u >= v {
			t.Fatalf("edge %d not canonical: (%d,%d)", i, u, v)
		}
		if got := s.EdgeIndex(u, v); got != i {
			t.Fatalf("EdgeIndex(%d,%d) = %d, want %d", u, v, got, i)
		}
		if !g.HasEdge(s.OrigID[u], s.OrigID[v]) {
			t.Fatalf("edge %d = (%d,%d) absent from source graph", i, u, v)
		}
	}
}

// randomSparseGraph builds a random graph over non-contiguous vertex ids
// with at most m edges (fewer when collisions exhaust the attempts).
func randomSparseGraph(rng *rand.Rand, n, m int) *Graph {
	g := New()
	for i := 0; i < n; i++ {
		g.AddVertex(Vertex(rng.Intn(3 * n))) // sparse, non-contiguous ids
	}
	verts := g.Vertices()
	for attempts := 0; len(verts) >= 2 && g.NumEdges() < m && attempts < 8*m+32; attempts++ {
		u := verts[rng.Intn(len(verts))]
		v := verts[rng.Intn(len(verts))]
		if u != v {
			g.AddEdge(u, v)
		}
	}
	return g
}

// TestForEachTriangleEdgeMatchesNaive property-tests the CSR kernel
// against the O(n·d²) enumerator on random graphs of varying density.
func TestForEachTriangleEdgeMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(40)
		m := rng.Intn(n * (n - 1) / 2)
		g := randomSparseGraph(rng, n, m)
		s := FreezeStatic(g)
		checkStaticInvariants(t, g, s)
		for i := int32(0); i < int32(s.NumEdges()); i++ {
			u, v := s.Endpoints(i)
			want := naiveTriangles(g, s, u, v)
			var got []int32
			s.ForEachTriangleEdge(u, v, func(w, e1, e2 int32) bool {
				// e1 must be the edge {u, w}, e2 the edge {v, w}.
				if s.EdgeIndex(u, w) != e1 {
					t.Fatalf("trial %d edge (%d,%d) w=%d: e1=%d, want %d", trial, u, v, w, e1, s.EdgeIndex(u, w))
				}
				if s.EdgeIndex(v, w) != e2 {
					t.Fatalf("trial %d edge (%d,%d) w=%d: e2=%d, want %d", trial, u, v, w, e2, s.EdgeIndex(v, w))
				}
				got = append(got, w)
				return true
			})
			if len(got) != len(want) {
				t.Fatalf("trial %d edge (%d,%d): kernel found %v, naive found %v", trial, u, v, got, want)
			}
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("trial %d edge (%d,%d): kernel found %v, naive found %v", trial, u, v, got, want)
				}
			}
			if sup := s.Support(i); sup != len(want) {
				t.Fatalf("trial %d edge (%d,%d): Support=%d, naive count %d", trial, u, v, sup, len(want))
			}
		}
	}
}

// TestForEachTriangleEdgeEarlyStop checks that returning false stops the
// iteration.
func TestForEachTriangleEdgeEarlyStop(t *testing.T) {
	// K5: every edge sits in three triangles.
	g := New()
	for u := Vertex(0); u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			g.AddEdge(u, v)
		}
	}
	s := FreezeStatic(g)
	calls := 0
	s.ForEachTriangleEdge(0, 1, func(w, e1, e2 int32) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Fatalf("early stop made %d calls, want 1", calls)
	}
}

// TestCountCommonSkewed exercises the galloping branch of countCommon: a
// star center adjacent to everything against a low-degree leaf.
func TestCountCommonSkewed(t *testing.T) {
	g := New()
	const n = 400
	for i := Vertex(1); i <= n; i++ {
		g.AddEdge(0, i) // hub
	}
	// A triangle fan on the first few leaves.
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	s := FreezeStatic(g)
	hub, _ := s.PosOf(0)
	leaf, _ := s.PosOf(2)
	i := s.EdgeIndex(hub, leaf)
	if i < 0 {
		t.Fatal("hub-leaf edge missing")
	}
	// Edge {0,2} closes triangles with 1 and 3 only.
	if got := s.Support(i); got != 2 {
		t.Fatalf("Support(hub-2) = %d, want 2", got)
	}
}

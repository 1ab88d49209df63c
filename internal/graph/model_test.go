package graph

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// graphModel is the oracle the randomized Graph and Dense tests run
// against: an edge set and a vertex set, every query answered by brute
// force over them, sharing no code with the rows under test.
type graphModel struct {
	verts map[Vertex]struct{}
	edges map[Edge]struct{}
}

func newGraphModel() *graphModel {
	return &graphModel{verts: map[Vertex]struct{}{}, edges: map[Edge]struct{}{}}
}

func (m *graphModel) clone() *graphModel {
	c := newGraphModel()
	for v := range m.verts {
		c.verts[v] = struct{}{}
	}
	for e := range m.edges {
		c.edges[e] = struct{}{}
	}
	return c
}

func (m *graphModel) hasVertex(v Vertex) bool {
	_, ok := m.verts[v]
	return ok
}

func (m *graphModel) hasEdge(u, v Vertex) bool {
	if u == v {
		return false
	}
	_, ok := m.edges[NewEdge(u, v)]
	return ok
}

func (m *graphModel) addVertex(v Vertex) bool {
	added := !m.hasVertex(v)
	m.verts[v] = struct{}{}
	return added
}

func (m *graphModel) addEdge(u, v Vertex) bool {
	m.addVertex(u)
	m.addVertex(v)
	added := !m.hasEdge(u, v)
	m.edges[NewEdge(u, v)] = struct{}{}
	return added
}

func (m *graphModel) removeEdge(u, v Vertex) bool {
	had := m.hasEdge(u, v)
	if had {
		delete(m.edges, NewEdge(u, v))
	}
	return had
}

func (m *graphModel) removeVertex(v Vertex) bool {
	if !m.hasVertex(v) {
		return false
	}
	for e := range m.edges {
		if e.Has(v) {
			delete(m.edges, e)
		}
	}
	delete(m.verts, v)
	return true
}

// vertices and edges return the sets sorted.
func (m *graphModel) vertices() []Vertex {
	out := []Vertex{}
	for v := range m.verts {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

func (m *graphModel) sortedEdges() []Edge {
	out := []Edge{}
	for e := range m.edges {
		out = append(out, e)
	}
	slices.SortFunc(out, compareEdges)
	return out
}

// neighbors returns v's neighbors sorted, empty but non-nil when none.
func (m *graphModel) neighbors(v Vertex) []Vertex {
	out := []Vertex{}
	for _, w := range m.vertices() {
		if m.hasEdge(v, w) {
			out = append(out, w)
		}
	}
	return out
}

// common returns the common neighbors of u and v sorted, nil when none.
func (m *graphModel) common(u, v Vertex) []Vertex {
	var out []Vertex
	for _, w := range m.vertices() {
		if m.hasEdge(u, w) && m.hasEdge(v, w) {
			out = append(out, w)
		}
	}
	return out
}

// checkGraph compares every read method of g with the model, over the
// model's vertices plus the absent ids in extra, then checks that
// FreezeStatic numbers g's edges in Edges order and that g's rows satisfy
// the Dense invariants.
func checkGraph(t *testing.T, label string, g *Graph, m *graphModel, extra ...Vertex) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s: %s", label, fmt.Sprintf(format, args...))
	}
	wantV, wantE := m.vertices(), m.sortedEdges()
	if g.NumVertices() != len(wantV) || g.NumEdges() != len(wantE) {
		fail("%d vertices / %d edges, want %d / %d", g.NumVertices(), g.NumEdges(), len(wantV), len(wantE))
	}
	if got := g.Vertices(); got == nil || !slices.Equal(got, wantV) {
		fail("Vertices() = %v, want %v", got, wantV)
	}
	if got := g.Edges(); got == nil || !slices.Equal(got, wantE) {
		fail("Edges() = %v, want %v", got, wantE)
	}
	var seenV []Vertex
	g.ForEachVertex(func(v Vertex) bool { seenV = append(seenV, v); return true })
	slices.Sort(seenV)
	if !slices.Equal(seenV, wantV) {
		fail("ForEachVertex saw %v, want %v", seenV, wantV)
	}
	var seenE []Edge
	g.ForEachEdge(func(e Edge) bool { seenE = append(seenE, e); return true })
	slices.SortFunc(seenE, compareEdges)
	if !slices.Equal(seenE, wantE) {
		fail("ForEachEdge saw %v, want %v", seenE, wantE)
	}

	probe := append(slices.Clone(wantV), extra...)
	for _, u := range probe {
		if g.HasVertex(u) != m.hasVertex(u) {
			fail("HasVertex(%d) = %v", u, g.HasVertex(u))
		}
		nbrs := m.neighbors(u)
		if g.Degree(u) != len(nbrs) {
			fail("Degree(%d) = %d, want %d", u, g.Degree(u), len(nbrs))
		}
		if got := g.NeighborsSorted(u); got == nil || !slices.Equal(got, nbrs) {
			fail("NeighborsSorted(%d) = %#v, want %v", u, got, nbrs)
		}
		var seen []Vertex
		g.ForEachNeighbor(u, func(w Vertex) bool { seen = append(seen, w); return true })
		slices.Sort(seen)
		if !slices.Equal(seen, nbrs) {
			fail("ForEachNeighbor(%d) saw %v, want %v", u, seen, nbrs)
		}
		for _, v := range probe {
			if u == v {
				continue
			}
			has := m.hasEdge(u, v)
			if g.HasEdge(u, v) != has || g.HasEdgeE(NewEdge(u, v)) != has {
				fail("HasEdge(%d, %d) = %v, want %v", u, v, g.HasEdge(u, v), has)
			}
			want := m.common(u, v)
			if got := g.CommonNeighbors(u, v); (got == nil) != (want == nil) || !slices.Equal(got, want) {
				fail("CommonNeighbors(%d, %d) = %#v, want %#v", u, v, got, want)
			}
			if got := g.Support(u, v); got != len(want) {
				fail("Support(%d, %d) = %d, want %d", u, v, got, len(want))
			}
			seen = seen[:0]
			g.ForEachCommonNeighbor(u, v, func(w Vertex) bool { seen = append(seen, w); return true })
			slices.Sort(seen)
			if !slices.Equal(seen, want) {
				fail("ForEachCommonNeighbor(%d, %d) saw %v, want %v", u, v, seen, want)
			}
			if !has {
				continue
			}
			if got := g.SupportE(NewEdge(u, v)); got != len(want) {
				fail("SupportE(%d-%d) = %d, want %d", u, v, got, len(want))
			}
			seen = seen[:0]
			g.ForEachTriangleOn(u, v, func(tr Triangle) bool {
				if !tr.HasEdge(NewEdge(u, v)) {
					fail("ForEachTriangleOn(%d, %d) gave %v", u, v, tr)
				}
				seen = append(seen, tr.ThirdVertex(NewEdge(u, v)))
				return true
			})
			slices.Sort(seen)
			if !slices.Equal(seen, want) {
				fail("ForEachTriangleOn(%d, %d) saw thirds %v, want %v", u, v, seen, want)
			}
			seen = seen[:0]
			g.ForEachTriangleEdge(u, v, func(w Vertex, e1, e2 Edge) bool {
				if e1 != NewEdge(u, w) || e2 != NewEdge(v, w) {
					fail("ForEachTriangleEdge(%d, %d) third %d gave edges %v, %v", u, v, w, e1, e2)
				}
				seen = append(seen, w)
				return true
			})
			slices.Sort(seen)
			if !slices.Equal(seen, want) {
				fail("ForEachTriangleEdge(%d, %d) saw %v, want %v", u, v, seen, want)
			}
		}
	}

	s := FreezeStatic(g)
	if !slices.Equal(s.OrigID, wantV) || s.NumEdges() != len(wantE) {
		fail("FreezeStatic: OrigID %v and %d edges, want %v and %d", s.OrigID, s.NumEdges(), wantV, len(wantE))
	}
	for i, e := range wantE {
		if got := s.EdgeAt(int32(i)); got != e {
			fail("FreezeStatic(g).EdgeAt(%d) = %v, want Edges()[%d] = %v", i, got, i, e)
		}
	}
	if err := g.d.CheckInvariants(); err != nil {
		fail("%v", err)
	}
}

// graphIDs is the vertex id pool of the randomized Graph test: small ids
// for collisions, plus negative and extreme ids for the bulk builder's
// key packing.
var graphIDs = []Vertex{-7, -1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 1 << 30, math.MaxInt32}

// absentIDs are never inserted; every query probes them too.
var absentIDs = []Vertex{-2, 14, math.MaxInt32 - 1}

// mutateGraph applies one random mutation to g and m alike and checks
// the reported results agree.
func mutateGraph(t *testing.T, rng *rand.Rand, g *Graph, m *graphModel) {
	t.Helper()
	u := graphIDs[rng.Intn(len(graphIDs))]
	v := graphIDs[rng.Intn(len(graphIDs))]
	var got, want bool
	switch op := rng.Intn(20); {
	case op < 9 && u != v:
		got, want = g.AddEdge(u, v), m.addEdge(u, v)
	case op < 16 && u != v:
		if rng.Intn(2) == 0 {
			got, want = g.RemoveEdgeE(NewEdge(u, v)), m.removeEdge(u, v)
		} else {
			got, want = g.RemoveEdge(u, v), m.removeEdge(u, v)
		}
	case op < 18:
		got, want = g.AddVertex(u), m.addVertex(u)
	default:
		// Present with edges, present and isolated, or absent.
		got, want = g.RemoveVertex(u), m.removeVertex(u)
	}
	if got != want {
		t.Fatalf("mutation on (%d, %d) reported %v, model %v", u, v, got, want)
	}
}

// TestGraphRandomOpsMatchModel drives Graph through seeded random
// insertions and deletions of edges and vertices, clones that are then
// mutated apart, and the bulk builders, checking every read method
// against graphModel after each burst.
func TestGraphRandomOpsMatchModel(t *testing.T) {
	rng := rand.New(rand.NewSource(18))

	// Bulk builders: duplicates and both orientations of each edge.
	var pairs []Vertex
	var edges []Edge
	var text bytes.Buffer
	bulk := newGraphModel()
	for k := 0; k < 60; k++ {
		u, v := graphIDs[rng.Intn(len(graphIDs))], graphIDs[rng.Intn(len(graphIDs))]
		if u == v || u < 0 || v < 0 {
			continue
		}
		bulk.addEdge(u, v)
		pairs = append(pairs, u, v, v, u)
		edges = append(edges, NewEdge(v, u), NewEdge(u, v))
		fmt.Fprintf(&text, "%d %d\n%d %d\n", u, v, v, u)
	}
	parsed, err := ReadEdgeList(&text)
	if err != nil {
		t.Fatal(err)
	}
	type start struct {
		name string
		g    *Graph
		m    *graphModel
	}
	starts := []start{
		{"FromPairs", FromPairs(pairs...), bulk.clone()},
		{"FromEdges", FromEdges(edges), bulk.clone()},
		{"ReadEdgeList", parsed, bulk.clone()},
	}
	for _, st := range starts {
		checkGraph(t, st.name, st.g, st.m, absentIDs...)
	}
	signed := newGraphModel()
	signed.addEdge(-7, 5)
	signed.addEdge(-1, -7)
	signed.addEdge(math.MaxInt32, -1)
	checkGraph(t, "FromPairs with negative ids", FromPairs(5, -7, -1, -7, -1, math.MaxInt32), signed, absentIDs...)
	for _, g := range []*Graph{New(), FromEdges(nil), FromPairs()} {
		checkGraph(t, "empty", g, newGraphModel(), absentIDs...)
	}

	// Mutations, starting from an empty graph and from each bulk build
	// (rows that share one backing array).
	for _, st := range append(starts, start{"New", New(), newGraphModel()}) {
		g, m := st.g, st.m
		for burst := 0; burst < 12; burst++ {
			for step := 0; step < 40; step++ {
				mutateGraph(t, rng, g, m)
			}
			checkGraph(t, fmt.Sprintf("%s burst %d", st.name, burst), g, m, absentIDs...)
			if burst%4 != 3 {
				continue
			}
			// Clone, then mutate the copies apart.
			c, mc := g.Clone(), m.clone()
			checkGraph(t, st.name+" clone", c, mc, absentIDs...)
			for step := 0; step < 40; step++ {
				mutateGraph(t, rng, g, m)
				mutateGraph(t, rng, c, mc)
			}
			checkGraph(t, st.name+" original after clone", g, m, absentIDs...)
			checkGraph(t, st.name+" clone after mutation", c, mc, absentIDs...)
		}
	}
}

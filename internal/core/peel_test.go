package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"slices"
	"testing"

	"trikcore/internal/bucket"
	"trikcore/internal/dataset"
	"trikcore/internal/graph"
)

// refLive is the live adjacency the peel used before it left
// triangle-free edges out: every edge of s, in packed (neighbor << 32 |
// edge id) rows with a per-vertex live end.
type refLive struct {
	s          *graph.Static
	row        []int64
	start, end []int32
}

func newRefLive(s *graph.Static) *refLive {
	la := &refLive{
		s:     s,
		row:   make([]int64, 2*s.NumEdges()),
		start: make([]int32, s.NumVertices()),
		end:   make([]int32, s.NumVertices()),
	}
	at := int32(0)
	for u := range la.start {
		nbr, eid := s.Row(int32(u))
		la.start[u] = at
		for k, w := range nbr {
			la.row[at] = int64(w)<<32 | int64(uint32(eid[k]))
			at++
		}
		la.end[u] = at
	}
	return la
}

func (la *refLive) remove(i int32) {
	u, v := la.s.Endpoints(i)
	for _, p := range [][2]int32{{u, v}, {v, u}} {
		lo, hi := la.start[p[0]], la.end[p[0]]
		row := la.row[lo:hi]
		at, ok := slices.BinarySearchFunc(row, p[1], func(x int64, w int32) int {
			return int(x>>32) - int(w)
		})
		if ok {
			k := lo + int32(at)
			copy(la.row[k:hi-1], la.row[k+1:hi])
			la.end[p[0]] = hi - 1
		}
	}
}

// triangles calls fn(e1, e2) for each live triangle {u, v, w} in
// ascending w, e1 = {u, w} and e2 = {v, w}: the order graph.LiveAdj's
// merge reports them in, on either of its merge paths.
func (la *refLive) triangles(u, v int32, fn func(e1, e2 int32)) {
	a, b := la.row[la.start[u]:la.end[u]], la.row[la.start[v]:la.end[v]]
	for len(a) > 0 && len(b) > 0 {
		x, y := a[0]>>32, b[0]>>32
		switch {
		case x < y:
			a = a[1:]
		case x > y:
			b = b[1:]
		default:
			fn(int32(uint32(a[0])), int32(uint32(b[0])))
			a, b = a[1:], b[1:]
		}
	}
}

// referencePeel is Algorithm 1's peel as it ran before triangle-free
// edges were skipped: every popped edge is removed from the live rows
// and merged, whether or not it lies in a triangle.
func referencePeel(s *graph.Static, support []int32) PeelResult {
	m := s.NumEdges()
	r := PeelResult{
		Kappa:   make([]int32, m),
		Order:   make([]int32, 0, m),
		OrderOf: make([]int32, m),
	}
	la := newRefLive(s)
	q := bucket.New(support)
	for {
		et, kt, ok := q.PopMin()
		if !ok {
			break
		}
		r.Kappa[et] = kt
		r.OrderOf[et] = int32(len(r.Order))
		r.Order = append(r.Order, et)
		r.MaxKappa = max(r.MaxKappa, kt)
		u, v := s.Endpoints(et)
		la.remove(et)
		la.triangles(u, v, func(e1, e2 int32) {
			if q.Val(e1) > kt {
				q.Dec(e1)
			}
			if q.Val(e2) > kt {
				q.Dec(e2)
			}
		})
	}
	return r
}

// mixedGraph builds a graph whose triangle-free edges interleave with
// triangle edges in edge-id order: overlapping cliques, pendant trees
// hanging off clique vertices, complete bipartite blocks and a few random
// cross edges, on vertex ids drawn from a random permutation so that no
// part occupies a contiguous id range.
func mixedGraph(seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	const n = 400
	ids := rng.Perm(n)
	next := 0
	fresh := func() graph.Vertex {
		v := graph.Vertex(ids[next])
		next++
		return v
	}
	g := graph.New()
	var cliqued []graph.Vertex
	for c := 0; c < 6; c++ {
		k := 3 + rng.Intn(6)
		var members []graph.Vertex
		if len(cliqued) > 0 {
			// Overlap a previous clique so κ levels interact.
			members = append(members, cliqued[rng.Intn(len(cliqued))])
		}
		for len(members) < k {
			members = append(members, fresh())
		}
		for i := range members {
			for j := i + 1; j < len(members); j++ {
				g.AddEdge(members[i], members[j])
			}
		}
		cliqued = append(cliqued, members...)
	}
	for t := 0; t < 5; t++ {
		tree := []graph.Vertex{cliqued[rng.Intn(len(cliqued))]}
		for i := 0; i < 4+rng.Intn(12); i++ {
			v := fresh()
			g.AddEdge(tree[rng.Intn(len(tree))], v)
			tree = append(tree, v)
		}
	}
	for b := 0; b < 3; b++ {
		left, right := make([]graph.Vertex, 2+rng.Intn(4)), make([]graph.Vertex, 2+rng.Intn(5))
		for i := range left {
			left[i] = fresh()
		}
		for i := range right {
			right[i] = fresh()
		}
		for _, u := range left {
			for _, v := range right {
				g.AddEdge(u, v)
			}
		}
	}
	for i := 0; i < 10; i++ {
		u, v := graph.Vertex(ids[rng.Intn(next)]), graph.Vertex(ids[rng.Intn(next)])
		if u != v {
			g.AddEdge(u, v)
		}
	}
	return g
}

// assertMatchesReference decomposes s and compares the peel's outputs
// with referencePeel's over the same support, and returns how many
// times support switches between zero and positive along edge ids.
func assertMatchesReference(t *testing.T, name string, s *graph.Static) int {
	t.Helper()
	d := DecomposeStatic(s, Options{})
	want := referencePeel(s, d.Support)
	if !slices.Equal(d.Kappa, want.Kappa) {
		t.Errorf("%s: κ differs from the unfiltered peel", name)
	}
	if !slices.Equal(d.Order, want.Order) {
		t.Errorf("%s: Order differs from the unfiltered peel", name)
	}
	if !slices.Equal(d.OrderOf, want.OrderOf) {
		t.Errorf("%s: OrderOf differs from the unfiltered peel", name)
	}
	if d.MaxKappa != want.MaxKappa {
		t.Errorf("%s: MaxKappa = %d, want %d", name, d.MaxKappa, want.MaxKappa)
	}
	switches := 0
	for i := 1; i < len(d.Support); i++ {
		if (d.Support[i] == 0) != (d.Support[i-1] == 0) {
			switches++
		}
	}
	return switches
}

// TestPeelMatchesReference holds the peel that leaves triangle-free
// edges out of its live rows byte-identical to the peel that carried
// every edge, on mixed graphs and on the stand-ins perfbench loads.
func TestPeelMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		s := graph.FreezeStatic(mixedGraph(seed))
		if switches := assertMatchesReference(t, "mixed", s); switches < 10 {
			t.Fatalf("seed %d: support switches between zero and positive %d times along edge ids, want ≥ 10", seed, switches)
		}
	}
	for _, name := range []string{"Epinions", "Astro-Author"} {
		d, ok := dataset.ByName(name)
		if !ok {
			t.Fatalf("dataset %s missing", name)
		}
		assertMatchesReference(t, name, graph.FreezeStatic(d.Graph()))
	}
}

// TestPeelDigestAstro pins κ and Order on watched's graph
// (Astro-Author at 0.03): the SHA-256 of both arrays, little-endian
// int32, as the unfiltered peel produced them.
func TestPeelDigestAstro(t *testing.T) {
	d, _ := dataset.ByName("Astro-Author")
	dec := DecomposeStatic(graph.FreezeStatic(d.GenerateAt(0.03)), Options{})
	h := sha256.New()
	if err := binary.Write(h, binary.LittleEndian, dec.Kappa); err != nil {
		t.Fatal(err)
	}
	if err := binary.Write(h, binary.LittleEndian, dec.Order); err != nil {
		t.Fatal(err)
	}
	const want = "ba0ff0001366aef95d4e80d4b3514439458a99d488015d0d49bb3a64b1f30a75"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("SHA-256 of (κ, Order) = %s, want %s", got, want)
	}
}

// TestDecomposeStaticAllocs bounds the allocations of a decomposition
// by a constant: the per-edge triangle callbacks of both kernels must
// stay on the stack, on the serial and the parallel support path alike.
func TestDecomposeStaticAllocs(t *testing.T) {
	d, _ := dataset.ByName("Astro-Author")
	s := graph.FreezeStatic(d.GenerateAt(0.15))
	if s.NumEdges() < 20000 {
		t.Fatalf("fixture has %d edges, want ≥ 20000", s.NumEdges())
	}
	// AllocsPerRun pins GOMAXPROCS to 1, so the parallel path is asked
	// for explicitly.
	const bound = 64
	for _, p := range []int{1, 4} {
		got := testing.AllocsPerRun(3, func() { DecomposeStatic(s, Options{Parallelism: p}) })
		t.Logf("parallelism %d: %.0f allocations", p, got)
		if got > bound {
			t.Errorf("parallelism %d: DecomposeStatic on %d edges made %.0f allocations, want ≤ %d", p, s.NumEdges(), got, bound)
		}
	}
}

package view

import (
	"container/heap"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"trikcore/internal/core"
	"trikcore/internal/dataset"
	"trikcore/internal/dynamic"
	"trikcore/internal/graph"
	"trikcore/internal/plot"
)

// dualViewMapRef is the dual-view builder snapshots ran before they
// built on their frozen views, kept as the oracle: both snapshots
// materialized as Graphs, co-clique values keyed by external edge, added
// edges from DiffGraphs, the map-based OPTICS ordering for both plots,
// and default options.
func dualViewMapRef(old, new *Snapshot) plot.DualView {
	oldG, newG := old.S.Materialize(), new.S.Materialize()
	oldCo, newCo := coCliqueMapRef(old), coCliqueMapRef(new)
	before := densityMapRef(oldG, oldCo)
	added := graph.DiffGraphs(oldG, newG).AddedEdgeSet()
	changed := make(plot.EdgeValues, len(added))
	for e, cs := range newCo {
		if added[e] {
			changed[e] = cs
		}
	}
	after := densityMapRef(newG, changed)

	dv := plot.DualView{Before: before, After: after}
	for i, pk := range after.TopPeaks(3, 3) {
		mk := plot.CorrespondenceMarker{Label: fmt.Sprintf("%d", i+1), Peak: pk}
		inOld := make(map[graph.Vertex]bool)
		for _, v := range pk.Vertices {
			if oldG.HasVertex(v) {
				inOld[v] = true
			} else {
				mk.NewVertices = append(mk.NewVertices, v)
			}
		}
		oldVerts := make([]graph.Vertex, 0, len(inOld))
		for _, v := range pk.Vertices {
			if inOld[v] {
				oldVerts = append(oldVerts, v)
			}
		}
		mk.BeforePositions = before.Positions(oldVerts)
		dv.Markers = append(dv.Markers, mk)
	}
	return dv
}

// coCliqueMapRef keys the snapshot's κ+2 by external edge.
func coCliqueMapRef(sn *Snapshot) plot.EdgeValues {
	m := make(plot.EdgeValues, len(sn.Kappa))
	for i, k := range sn.Kappa {
		m[sn.S.EdgeAt(int32(i))] = int(k) + 2
	}
	return m
}

// densityMapRef is the map-based OPTICS ordering: best incident value
// seeds, a frontier keyed by map presence, ties on vertex id.
func densityMapRef(g *graph.Graph, vals plot.EdgeValues) plot.Series {
	var s plot.Series
	n := g.NumVertices()
	if n == 0 {
		return s
	}
	seeds := g.Vertices()
	seedVal := make(map[graph.Vertex]int, n)
	for _, v := range seeds {
		best := 0
		g.ForEachNeighbor(v, func(w graph.Vertex) bool {
			best = max(best, vals[graph.NewEdge(v, w)])
			return true
		})
		seedVal[v] = best
	}
	sort.Slice(seeds, func(i, j int) bool {
		a, b := seeds[i], seeds[j]
		if seedVal[a] != seedVal[b] {
			return seedVal[a] > seedVal[b]
		}
		return a < b
	})
	visited := make(map[graph.Vertex]bool, n)
	reach := make(map[graph.Vertex]int, n)
	pq := &refHeap{}
	visit := func(v graph.Vertex, h int) {
		visited[v] = true
		s.Points = append(s.Points, plot.Point{V: v, Height: h})
		g.ForEachNeighbor(v, func(w graph.Vertex) bool {
			if visited[w] {
				return true
			}
			val := vals[graph.NewEdge(v, w)]
			if cur, ok := reach[w]; !ok || val > cur {
				reach[w] = val
				heap.Push(pq, refItem{v: w, val: val})
			}
			return true
		})
	}
	seedIdx := 0
	for len(s.Points) < n {
		progressed := false
		for pq.Len() > 0 {
			it := heap.Pop(pq).(refItem)
			if visited[it.v] || reach[it.v] != it.val {
				continue
			}
			visit(it.v, it.val)
			progressed = true
			break
		}
		if progressed {
			continue
		}
		for seedIdx < len(seeds) && visited[seeds[seedIdx]] {
			seedIdx++
		}
		v := seeds[seedIdx]
		visit(v, seedVal[v])
	}
	return s
}

type refItem struct {
	v   graph.Vertex
	val int
}

type refHeap []refItem

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].val != h[j].val {
		return h[i].val > h[j].val
	}
	return h[i].v < h[j].v
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refItem)) }
func (h *refHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// hubsOf returns g's k highest-degree vertices, ties on id.
func hubsOf(g *graph.Graph, k int) []graph.Vertex {
	vs := g.Vertices()
	slices.SortStableFunc(vs, func(a, b graph.Vertex) int { return g.Degree(b) - g.Degree(a) })
	return vs[:k]
}

// TestDualViewMatchesMapBuilder publishes seeded edit batches on
// Astro-Author@0.03 and a small Epinions instance and compares
// DualViewAgainst and DualViewSVGAgainst with the map-based builder for
// the immediate predecessor, older bookmarks, a bookmark equal to the
// current snapshot, a deletion-only batch, a fresh clique joined to hubs
// and a view whose vertex numbering differs from the bookmark's.
func TestDualViewMatchesMapBuilder(t *testing.T) {
	for _, tc := range []struct {
		name     string
		fraction float64
		seed     int64
	}{
		{"Astro-Author", 0.03, 41},
		{"Epinions", 0.02, 42},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds, ok := dataset.ByName(tc.name)
			if !ok {
				t.Fatalf("dataset %s missing", tc.name)
			}
			g := ds.GenerateAt(tc.fraction)
			rng := rand.New(rand.NewSource(tc.seed))
			hubs := hubsOf(g, 30)
			p := NewPublisherFromGraph(g)
			snaps := []*Snapshot{p.Acquire()}
			publish := func(ops []dynamic.EdgeOp) {
				t.Helper()
				if a, r := p.Apply(ops); a+r == 0 {
					t.Fatal("batch changed nothing")
				}
				snaps = append(snaps, p.Acquire())
			}

			// s1: 40 new edges among hubs.
			var hubEdges []dynamic.EdgeOp
			for len(hubEdges) < 40 {
				u, v := hubs[rng.Intn(len(hubs))], hubs[rng.Intn(len(hubs))]
				if u != v && !g.HasEdge(u, v) && !slices.ContainsFunc(hubEdges, func(op dynamic.EdgeOp) bool {
					return graph.NewEdge(op.U, op.V) == graph.NewEdge(u, v)
				}) {
					hubEdges = append(hubEdges, dynamic.EdgeOp{U: u, V: v})
				}
			}
			publish(hubEdges)

			// s2: a fresh 6-clique, each member joined to three hubs.
			fresh := slices.Max(g.Vertices()) + 1
			var clique []dynamic.EdgeOp
			for i := graph.Vertex(0); i < 6; i++ {
				for j := i + 1; j < 6; j++ {
					clique = append(clique, dynamic.EdgeOp{U: fresh + i, V: fresh + j})
				}
				for _, h := range hubs[3*i : 3*i+3] {
					clique = append(clique, dynamic.EdgeOp{U: fresh + i, V: h})
				}
			}
			publish(clique)

			// s3: deletions only — base edges, hub edges and clique edges.
			base := g.Edges()
			var dels []dynamic.EdgeOp
			for i := 0; i < 20; i++ {
				e := base[rng.Intn(len(base))]
				dels = append(dels, dynamic.EdgeOp{U: e.U, V: e.V, Del: true})
			}
			for _, op := range append(hubEdges[:5:5], clique[:4]...) {
				dels = append(dels, dynamic.EdgeOp{U: op.U, V: op.V, Del: true})
			}
			publish(dels)

			// s4: an 8+8 edit against s3.
			var mixed []dynamic.EdgeOp
			for len(mixed) < 8 {
				u, v := hubs[rng.Intn(len(hubs))], graph.Vertex(rng.Intn(g.NumVertices()))
				if u != v && !g.HasEdge(u, v) {
					mixed = append(mixed, dynamic.EdgeOp{U: u, V: v})
				}
			}
			for i := 0; i < 8; i++ {
				e := base[rng.Intn(len(base))]
				mixed = append(mixed, dynamic.EdgeOp{U: e.U, V: e.V, Del: true})
			}
			publish(mixed)

			// s5: s4 plus a 5-clique on negative ids joined to hubs, decomposed
			// from scratch: a view whose every position differs from the
			// publisher's numbering, as a bookmark's could.
			g5 := snaps[4].S.Materialize()
			for i := graph.Vertex(-5); i < 0; i++ {
				for j := i + 1; j < 0; j++ {
					g5.AddEdge(i, j)
				}
				g5.AddEdge(i, hubs[int(i)+5])
				g5.AddEdge(i, hubs[int(i)+6])
			}
			d5 := core.Decompose(g5)
			snaps = append(snaps, &Snapshot{Version: snaps[4].Version + 1, S: d5.S, Kappa: d5.Kappa})

			markers := 0
			for _, pair := range [][2]int{
				{1, 0}, // immediate predecessor
				{2, 1}, // fresh clique joined to hubs
				{2, 0}, // older bookmark
				{3, 2}, // deletion-only batch
				{3, 0}, // older bookmark across the deletions
				{3, 3}, // bookmark equal to the current snapshot
				{4, 3},
				{4, 1},
				{5, 4}, // different vertex numbering
				{5, 2},
			} {
				cur, old := snaps[pair[0]], snaps[pair[1]]
				want := dualViewMapRef(old, cur)
				got := cur.DualViewAgainst(old)
				if !reflect.DeepEqual(*got, want) {
					t.Fatalf("s%d against s%d: dual view differs from the map builder\ngot markers  %+v\nwant markers %+v",
						pair[0], pair[1], got.Markers, want.Markers)
				}
				wantSVG := plot.RenderSVG(want.After, plot.SVGOptions{Title: dualViewTitle, Markers: want.MarkersForSVG()})
				if gotSVG := string(cur.DualViewSVGAgainst(old)); gotSVG != wantSVG {
					t.Fatalf("s%d against s%d: dual-view SVG differs from the map builder's", pair[0], pair[1])
				}
				markers += len(want.Markers)
			}
			if markers == 0 {
				t.Fatal("no pair produced a marker; the comparison is vacuous")
			}
		})
	}
}

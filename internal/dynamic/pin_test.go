package dynamic

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"trikcore/internal/dataset"
	"trikcore/internal/graph"
)

// astroWatched is the watched benchmark's graph: the Astro-Author
// stand-in at 3% (537 vertices, 5,729 edges).
func astroWatched(t testing.TB) *graph.Graph {
	t.Helper()
	d, ok := dataset.ByName("Astro-Author")
	if !ok {
		t.Fatal("no Astro-Author dataset")
	}
	return d.GenerateAt(0.03)
}

// hubEdits generates n edit batches of the watched benchmark's shape:
// batch i inserts size edges absent from g, both endpoints drawn
// Zipf(1.1) over g's vertices ranked by descending degree (ties by id),
// and deletes batch i-1's insertions.
func hubEdits(g *graph.Graph, rng *rand.Rand, n, size int) [][]EdgeOp {
	verts := g.Vertices()
	slices.SortFunc(verts, func(a, b graph.Vertex) int {
		if da, db := g.Degree(a), g.Degree(b); da != db {
			return db - da
		}
		return int(a) - int(b)
	})
	z := rand.NewZipf(rng, 1.1, 1, uint64(len(verts)-1))
	out := make([][]EdgeOp, n)
	var prev []graph.Edge
	for i := range out {
		avoid := make(map[graph.Edge]bool, 2*size)
		for _, e := range prev {
			avoid[e] = true
			out[i] = append(out[i], EdgeOp{U: e.U, V: e.V, Del: true})
		}
		var cur []graph.Edge
		for len(cur) < size {
			u, v := verts[z.Uint64()], verts[z.Uint64()]
			if u == v || g.HasEdge(u, v) || avoid[graph.NewEdge(u, v)] {
				continue
			}
			e := graph.NewEdge(u, v)
			avoid[e] = true
			cur = append(cur, e)
			out[i] = append(out[i], EdgeOp{U: e.U, V: e.V})
		}
		prev = cur
	}
	return out
}

// bulkEdits generates n batches of the ingest benchmark's shape: a
// seeded permutation of g's sorted edges cut into blocks of size; batch
// 0 deletes the last block, and batch j+1 deletes block j and re-inserts
// block j-1.
func bulkEdits(g *graph.Graph, rng *rand.Rand, n, size int) [][]EdgeOp {
	edges := g.Edges()
	perm := rng.Perm(len(edges))
	nb := len(edges) / size
	block := func(j int, del bool) []EdgeOp {
		j = (j + nb) % nb
		ops := make([]EdgeOp, size)
		for i := range ops {
			e := edges[perm[j*size+i]]
			ops[i] = EdgeOp{U: e.U, V: e.V, Del: del}
		}
		return ops
	}
	out := [][]EdgeOp{block(nb-1, true)}
	for j := 0; len(out) < n; j++ {
		out = append(out, append(block(j, true), block(j-1, false)...))
	}
	return out
}

// churnDigest applies batches at the given worker count and returns the
// engine's Stats and a SHA-256 over every batch's BatchChanges, in
// firing order.
func churnDigest(g *graph.Graph, batches [][]EdgeOp, workers int) (Stats, string) {
	en := NewEngine(g)
	h := sha256.New()
	for i, ops := range batches {
		en.ApplyBatchContext(context.Background(), ops, workers)
		fmt.Fprintf(h, "batch %d\n", i)
		for _, c := range en.BatchChanges() {
			fmt.Fprintf(h, "%d %d %d %d\n", c.E.U, c.E.V, c.From, c.To)
		}
	}
	return en.Stats(), hex.EncodeToString(h.Sum(nil))
}

// TestTraversalPinned pins what κ maintenance does on the benchmark
// shapes: the work counters and every batch's transition log, on hub
// 8+8 edits at 1 worker and 100+100 bulk batches at 1 and 2 workers.
// The values were computed by the engine before it had a triangle
// memo; they hold as long as the memo changes only how an edge's
// triangles are fetched, never which ones or in what order.
func TestTraversalPinned(t *testing.T) {
	g := astroWatched(t)
	hub := hubEdits(g, rand.New(rand.NewSource(1)), 16, 8)
	bulk := bulkEdits(g, rand.New(rand.NewSource(2)), 2, 100)
	for _, tc := range []struct {
		name    string
		batches [][]EdgeOp
		workers int
		ins     int
		del     int
		tri     int
		visited int
		prom    int
		dem     int
		digest  string
	}{
		{"hub8+8/w1", hub, 1, 128, 120, 1768, 13798, 1290, 1238,
			"9e65e597be3b3149fed80030051bf7ca64b68274c37d76868e6cb642af40391a"},
		{"bulk100+100/w1", bulk, 1, 100, 200, 1245, 6109, 565, 1141,
			"844fcda153b84f006ddc2b353d29f94040c3a835aa210be85370062b33d38217"},
		{"bulk100+100/w2", bulk, 2, 100, 200, 1245, 6130, 562, 1138,
			"2fb831e3cfb5057b86fa45a063c78851adfaa035065e2126a29d30dbc80ce7b3"},
	} {
		st, digest := churnDigest(g, tc.batches, tc.workers)
		got := fmt.Sprintf("%d %d %d %d %d %d %s", st.Insertions, st.Deletions, st.TrianglesProcessed,
			st.EdgesVisited, st.Promotions, st.Demotions, digest)
		want := fmt.Sprintf("%d %d %d %d %d %d %s", tc.ins, tc.del, tc.tri, tc.visited, tc.prom, tc.dem, tc.digest)
		if got != want {
			t.Errorf("%s: ins del tri visited prom dem digest\n got  %s\n want %s", tc.name, got, want)
		}
	}
}

package registry

import (
	"math/rand"
	"slices"
	"testing"

	"trikcore/internal/dataset"
	"trikcore/internal/dynamic"
	"trikcore/internal/graph"
)

// standIn builds a dataset stand-in at the given fraction of its scale.
func standIn(tb testing.TB, name string, fraction float64) *graph.Graph {
	tb.Helper()
	d, ok := dataset.ByName(name)
	if !ok {
		tb.Fatalf("unknown dataset %q", name)
	}
	if fraction == 1 {
		return d.Graph()
	}
	return d.GenerateAt(fraction)
}

// hubBatches generates n cyclic batches of the hub-skewed shape the
// watched benchmark writes: batch i inserts size edges absent from g,
// both endpoints drawn Zipf(1.1) over g's vertices ranked by degree, and
// deletes batch i-1's insertions (batch 0 deletes batch n-1's). All
// insertions are distinct, so once batch 0 has run the sequence can be
// replayed in a loop.
func hubBatches(g *graph.Graph, rng *rand.Rand, n, size int) [][]dynamic.EdgeOp {
	verts := g.Vertices()
	slices.SortStableFunc(verts, func(a, b graph.Vertex) int { return g.Degree(b) - g.Degree(a) })
	z := rand.NewZipf(rng, 1.1, 1, uint64(len(verts)-1))
	used := make(map[graph.Edge]bool)
	adds := make([][]graph.Edge, n)
	for i := range adds {
		for len(adds[i]) < size {
			u, v := verts[z.Uint64()], verts[z.Uint64()]
			if u == v || g.HasEdge(u, v) || used[graph.NewEdge(u, v)] {
				continue
			}
			used[graph.NewEdge(u, v)] = true
			adds[i] = append(adds[i], graph.NewEdge(u, v))
		}
	}
	out := make([][]dynamic.EdgeOp, n)
	for i := range out {
		for _, e := range adds[(i+n-1)%n] {
			out[i] = append(out[i], del(e.U, e.V))
		}
		for _, e := range adds[i] {
			out[i] = append(out[i], add(e.U, e.V))
		}
	}
	return out
}

// BenchmarkFeedPublish measures one armed write: a hub-skewed 8+8 batch
// through Space.Apply, covering the engine, the freeze and the feed's
// event rendering, on the watched benchmark's graph (Astro-Author at 3%)
// and on the 405k-edge Epinions stand-in.
func BenchmarkFeedPublish(b *testing.B) {
	for _, bc := range []struct {
		name, dataset string
		fraction      float64
	}{
		{"Astro3pct", "Astro-Author", 0.03},
		{"Epinions", "Epinions", 1},
	} {
		b.Run(bc.name, func(b *testing.B) {
			if bc.name == "Epinions" && testing.Short() {
				b.Skip("405k-edge stand-in; skipped under -short")
			}
			g := standIn(b, bc.dataset, bc.fraction)
			sp, err := New(Config{}).Create("g", g)
			if err != nil {
				b.Fatal(err)
			}
			_, sub := sp.Feed().Subscribe(0) // arms the feed for good
			sp.Feed().Unsubscribe(sub)
			batches := hubBatches(g, rand.New(rand.NewSource(1)), 32, 8)
			if _, _, err := sp.Apply(batches[0]); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 1; i <= b.N; i++ {
				if _, _, err := sp.Apply(batches[i%len(batches)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

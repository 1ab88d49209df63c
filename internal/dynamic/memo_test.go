package dynamic

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"trikcore/internal/gen"
	"trikcore/internal/graph"
)

// TestTriangleListingsPerVisit checks that the memo serves repeat visits:
// on the pinned hub-edit sequence, the row merges κ maintenance runs stay
// within the edges its searches visit plus one own-edge listing per op.
// One merge per visit runs about 3.3 per visited edge there (45,583
// against 13,798).
func TestTriangleListingsPerVisit(t *testing.T) {
	g := astroWatched(t)
	en := NewEngine(g)
	for _, ops := range hubEdits(g, rand.New(rand.NewSource(1)), 16, 8) {
		en.ApplyBatch(ops)
	}
	st := en.Stats()
	bound := st.EdgesVisited + st.Insertions + st.Deletions
	t.Logf("listings %d, visited+ops %d", st.TriangleListings, bound)
	if st.TriangleListings == 0 || st.TriangleListings > bound {
		t.Fatalf("TriangleListings = %d, want in (0, %d]", st.TriangleListings, bound)
	}
}

// TestQueriesAfterSlotReuse interleaves serial deletion batches, whose
// compaction moves other edges into the deleted edges' ids, with
// parallel insertion batches, and after every batch compares the
// engine's κ queries on every edge with a fresh engine over the same
// edges. The queries run between ops, when no op's triangle memo
// describes the current structure: a memo served to them lists a
// deleted edge's triangles under the id of the edge that took its slot.
func TestQueriesAfterSlotReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 70
	en := NewEngine(gen.PowerLawCluster(n, 4, 0.6, 11))
	for step := 0; step < 3; step++ {
		edges := en.Graph().Edges()
		var dels []EdgeOp
		for len(dels) < 6 {
			e := edges[rng.Intn(len(edges))]
			dels = append(dels, EdgeOp{U: e.U, V: e.V, Del: true})
		}
		en.ApplyBatch(dels)
		checkQueries(t, en, step, "serial deletions")

		var ins []EdgeOp
		for len(ins) < 6 {
			u, v := graph.Vertex(rng.Intn(n)), graph.Vertex(rng.Intn(n))
			if u != v && !en.HasEdge(u, v) {
				ins = append(ins, EdgeOp{U: u, V: v})
			}
		}
		en.ApplyBatchParallel(ins, 2)
		checkQueries(t, en, step, "parallel insertions")
	}
}

// checkQueries compares RuleOneWitness, MaxCoreOf and Communities of en
// with those of a fresh engine over en's edges.
func checkQueries(t *testing.T, en *Engine, step int, after string) {
	t.Helper()
	fresh := NewEngine(en.Graph())
	for _, e := range en.Graph().Edges() {
		got, _ := en.RuleOneWitness(e)
		want, _ := fresh.RuleOneWitness(e)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d after %s: RuleOneWitness(%v) = %v, fresh engine %v", step, after, e, got, want)
		}
		gotCore, _ := en.MaxCoreOf(e)
		wantCore, _ := fresh.MaxCoreOf(e)
		if !reflect.DeepEqual(gotCore.Edges(), wantCore.Edges()) {
			t.Fatalf("step %d after %s: MaxCoreOf(%v) = %v, fresh engine %v",
				step, after, e, gotCore.Edges(), wantCore.Edges())
		}
	}
	for k := int32(0); k <= fresh.MaxKappa()+1; k++ {
		if got, want := en.Communities(k), fresh.Communities(k); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d after %s: Communities(%d) = %v, fresh engine %v", step, after, k, got, want)
		}
	}
}

// TestCliqueChurnPastMemoCap inserts the edge missing from K_120 and
// then deletes another, at 1 and 2 workers, and compares κ with a
// from-scratch engine after each batch. Each op's searches list about
// 2.5M triangle entries, past the memo's cap twice, so the op refills
// the spare arena twice while it still iterates its own edge's listing
// from the first.
func TestCliqueChurnPastMemoCap(t *testing.T) {
	const n = 120
	var edges []graph.Edge
	for u := graph.Vertex(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			if u != 0 || v != 1 {
				edges = append(edges, graph.NewEdge(u, v))
			}
		}
	}
	g := graph.FromEdges(edges)
	batches := [][]EdgeOp{{{U: 0, V: 1}}, {{U: 2, V: 3, Del: true}}}
	var want []map[graph.Edge]int
	for _, workers := range []int{1, 2} {
		en := NewEngine(g)
		for i, ops := range batches {
			en.ApplyBatchContext(context.Background(), ops, workers)
			if len(want) == i {
				want = append(want, NewEngine(en.Graph()).EdgeKappas())
			}
			if !reflect.DeepEqual(en.EdgeKappas(), want[i]) {
				t.Fatalf("workers=%d batch %d: κ differs from a from-scratch engine", workers, i)
			}
		}
	}
}

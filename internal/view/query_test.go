package view

import (
	"math/rand"
	"reflect"
	"testing"

	"trikcore/internal/core"
	"trikcore/internal/dynamic"
	"trikcore/internal/events"
	"trikcore/internal/graph"
)

// TestKappaQueriesAgreeAcrossRepresentations holds the κ-level queries
// to one answer whichever representation carries κ: a fresh FreezeStatic
// decomposition (lexicographic edge ids), the published snapshot (a
// Dense.Freeze view whose ids follow the substrate's allocation history
// once churn has recycled slots) and the live engine. After every churn
// batch it compares, at every level k, the communities in both forms,
// and for every edge κ and the maximum-core edge set.
func TestKappaQueriesAgreeAcrossRepresentations(t *testing.T) {
	const (
		graphs, n, batches, opsPerBatch = 12, 40, 30, 6
		p                               = 0.25
	)
	scrambled := 0
	for seed := int64(1); seed <= graphs; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := graph.New()
		for u := graph.Vertex(0); u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < p {
					g.AddEdge(u, v)
				}
			}
		}
		pub := NewPublisherFromGraph(g)
		en := dynamic.NewEngine(g)
		for b := 0; b < batches; b++ {
			ops := make([]dynamic.EdgeOp, 0, opsPerBatch)
			for len(ops) < opsPerBatch {
				u, v := graph.Vertex(rng.Intn(n)), graph.Vertex(rng.Intn(n))
				if u != v {
					ops = append(ops, dynamic.EdgeOp{U: u, V: v, Del: en.HasEdge(u, v)})
				}
			}
			pub.Apply(ops)
			en.ApplyBatch(ops)

			sn := pub.Acquire()
			cur := en.Graph()
			d := core.Decompose(cur)
			for i := 1; i < sn.NumEdges(); i++ {
				if !sn.S.EdgeAt(int32(i - 1)).Less(sn.S.EdgeAt(int32(i))) {
					scrambled++
					break
				}
			}
			for k := int32(0); k <= d.MaxKappa+1; k++ {
				want := d.Communities(k)
				if got := sn.Communities(k); !sameList(got, want) {
					t.Fatalf("seed %d batch %d: snapshot Communities(%d) = %v, static %v", seed, b, k, got, want)
				}
				live := en.Communities(k)
				if !sameList(live, want) {
					t.Fatalf("seed %d batch %d: engine Communities(%d) = %v, static %v", seed, b, k, live, want)
				}
				wantAt := events.CommunitiesAt(cur, k)
				if got := sn.CommunitiesAt(k); !sameList(got, wantAt) {
					t.Fatalf("seed %d batch %d: snapshot CommunitiesAt(%d) = %v, static %v", seed, b, k, got, wantAt)
				}
				if got := events.CommunitiesOf(live); !sameList(got, wantAt) {
					t.Fatalf("seed %d batch %d: engine CommunitiesAt(%d) = %v, static %v", seed, b, k, got, wantAt)
				}
			}
			probed := make(map[int32]bool) // κ levels whose maximum core was compared
			for i, kv := range d.Kappa {
				e := d.S.EdgeAt(int32(i))
				if k, ok := sn.KappaOf(e); !ok || k != kv {
					t.Fatalf("seed %d batch %d: snapshot κ(%v) = %d,%v, static %d", seed, b, e, k, ok, kv)
				}
				if k, ok := en.Kappa(e); !ok || k != kv {
					t.Fatalf("seed %d batch %d: engine κ(%v) = %d,%v, static %d", seed, b, e, k, ok, kv)
				}
				// One maximum core per level and batch: each walk covers
				// most of a 40-vertex graph, so every edge would dominate
				// the test's run time.
				if probed[kv] {
					continue
				}
				probed[kv] = true
				want, _ := d.MaxCoreOf(e)
				if got, _, _ := sn.CoreOf(e); !reflect.DeepEqual(got, want.Edges()) {
					t.Fatalf("seed %d batch %d: snapshot core of %v = %v, static %v", seed, b, e, got, want.Edges())
				}
				if got, _ := en.MaxCoreOf(e); !reflect.DeepEqual(got.Edges(), want.Edges()) {
					t.Fatalf("seed %d batch %d: engine core of %v = %v, static %v", seed, b, e, got.Edges(), want.Edges())
				}
			}
		}
	}
	if scrambled == 0 {
		t.Fatal("churn never left a snapshot with non-lexicographic edge ids; the comparison proves nothing")
	}
}

// sameList reports whether two query results hold the same elements,
// counting nil and empty as equal.
func sameList[T any](a, b []T) bool {
	return len(a) == 0 && len(b) == 0 || reflect.DeepEqual(a, b)
}

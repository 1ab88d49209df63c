package view

import (
	"bytes"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"trikcore/internal/dynamic"
	"trikcore/internal/gen"
	"trikcore/internal/graph"
)

func k5PlusPendant() *graph.Graph {
	g := graph.New()
	for u := graph.Vertex(1); u <= 5; u++ {
		for v := u + 1; v <= 5; v++ {
			g.AddEdge(u, v)
		}
	}
	g.AddEdge(10, 11)
	return g
}

// TestPublisherPublicationProtocol pins the core contract: the initial
// state is published, no-op batches republish nothing (same pointer,
// same version), effective batches publish a fresh snapshot, and old
// snapshots stay frozen.
func TestPublisherPublicationProtocol(t *testing.T) {
	p := NewPublisherFromGraph(k5PlusPendant())
	sn0 := p.Acquire()
	if sn0 == nil || sn0.NumEdges() != 11 || sn0.NumVertices() != 7 {
		t.Fatalf("initial snapshot = %+v", sn0)
	}
	if sn0.MaxK != 3 || sn0.MaxCliqueProxy() != 5 {
		t.Fatalf("initial MaxK %d proxy %d, want 3/5", sn0.MaxK, sn0.MaxCliqueProxy())
	}

	// No-op batch: same snapshot pointer.
	if a, r := p.Apply([]dynamic.EdgeOp{{U: 1, V: 2}}); a != 0 || r != 0 {
		t.Fatalf("no-op batch reported %d/%d", a, r)
	}
	if p.Acquire() != sn0 {
		t.Fatal("no-op batch republished")
	}

	// Effective batch: new pointer, larger version, old snapshot intact.
	if a, _ := p.Apply([]dynamic.EdgeOp{{U: 10, V: 12}, {U: 11, V: 12}}); a != 2 {
		t.Fatal("effective batch not applied")
	}
	sn1 := p.Acquire()
	if sn1 == sn0 || sn1.Version <= sn0.Version {
		t.Fatalf("expected fresh snapshot: v%d → v%d", sn0.Version, sn1.Version)
	}
	if sn0.NumEdges() != 11 || sn1.NumEdges() != 13 {
		t.Fatalf("edge counts %d/%d, want 11/13", sn0.NumEdges(), sn1.NumEdges())
	}
	if k, ok := sn1.KappaOf(graph.NewEdge(10, 12)); !ok || k != 1 {
		t.Fatalf("κ(10,12) = %d,%v, want 1,true", k, ok)
	}
	if _, ok := sn0.KappaOf(graph.NewEdge(10, 12)); ok {
		t.Fatal("old snapshot sees a later edge")
	}
}

// TestSnapshotMatchesEngine drives a Publisher and a bare engine through
// the same operations and checks every snapshot-derived quantity against
// the engine's live answers.
func TestSnapshotMatchesEngine(t *testing.T) {
	g := k5PlusPendant()
	p := NewPublisherFromGraph(g)
	en := dynamic.NewEngine(g)
	batch := []dynamic.EdgeOp{
		{U: 10, V: 12}, {U: 11, V: 12}, {U: 10, V: 11, Del: true},
		{U: 2, V: 6}, {U: 3, V: 6}, {U: 1, V: 6},
	}
	p.Apply(batch)
	en.ApplyBatch(batch)

	sn := p.Acquire()
	if sn.NumEdges() != en.NumEdges() || sn.NumVertices() != en.NumVertices() {
		t.Fatalf("sizes %d/%d vs engine %d/%d",
			sn.NumVertices(), sn.NumEdges(), en.NumVertices(), en.NumEdges())
	}
	if sn.MaxK != en.MaxKappa() {
		t.Fatalf("MaxK %d, engine %d", sn.MaxK, en.MaxKappa())
	}
	for e, k := range en.EdgeKappas() {
		got, ok := sn.KappaOf(e)
		if !ok || got != int32(k) {
			t.Fatalf("KappaOf(%v) = %d,%v, engine %d", e, got, ok, k)
		}
	}
	for k, n := range en.KappaHistogram() {
		if sn.Hist[k] != n {
			t.Fatalf("Hist[%d] = %d, engine %d", k, sn.Hist[k], n)
		}
	}
	for k := int32(1); k <= sn.MaxK; k++ {
		if got, want := sn.Communities(k), en.Communities(k); !reflect.DeepEqual(got, want) {
			t.Fatalf("Communities(%d):\ngot  %v\nwant %v", k, got, want)
		}
	}
	// CoreOf matches MaxCoreOf's edge set.
	probe := graph.NewEdge(1, 2)
	edges, k, ok := sn.CoreOf(probe)
	sub, ok2 := en.MaxCoreOf(probe)
	if !ok || !ok2 {
		t.Fatal("probe edge missing")
	}
	if kk, _ := en.Kappa(probe); kk != k {
		t.Fatalf("CoreOf κ = %d, engine %d", k, kk)
	}
	if want := sub.Edges(); !reflect.DeepEqual(edges, want) {
		t.Fatalf("CoreOf edges:\ngot  %v\nwant %v", edges, want)
	}
}

// TestMemoSingleflight hammers one artifact key from many goroutines and
// checks the compute function ran exactly once and everyone saw the same
// value.
func TestMemoSingleflight(t *testing.T) {
	p := NewPublisherFromGraph(k5PlusPendant())
	sn := p.Acquire()
	var computes atomic.Int32
	const readers = 32
	results := make([]any, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = sn.Memo("probe", func() any {
				computes.Add(1)
				return sn.DensitySeries()
			})
		}(i)
	}
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	for i := 1; i < readers; i++ {
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatal("memo returned divergent values")
		}
	}
	// Rendered artifacts are pointer-stable across calls: a second call
	// must hand back the same bytes without re-rendering.
	a, b := sn.PlotSVG(), sn.PlotSVG()
	if &a[0] != &b[0] {
		t.Fatal("PlotSVG re-rendered on a cache hit")
	}
}

// TestOrientedHalfConcurrentFirstUse has four goroutines list the
// oriented half of one fresh snapshot's view at once, through
// TriangleCount and ForEachOrientedTriangle in alternating order. A view
// frozen from the engine derives its out-rows on first use, so the four
// race to derive them; each must list the same triangles as the others
// and count as many as FreezeStatic over the same edges. The fixture has
// more than 1024 vertices, so above one GOMAXPROCS the derivation itself
// runs on parallel blocks.
func TestOrientedHalfConcurrentFirstUse(t *testing.T) {
	p := NewPublisherFromGraph(gen.PowerLawCluster(1500, 4, 0.5, 7))
	e := p.Acquire().S.EdgeAt(0)
	p.Apply([]dynamic.EdgeOp{{U: e.U, V: e.V, Del: true}})
	s := p.Acquire().S
	const readers = 4
	counts := make([]int64, readers)
	lists := make([][]int32, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			list := func() {
				for e := int32(0); int(e) < s.NumEdges(); e++ {
					s.ForEachOrientedTriangle(e, func(e1, e2 int32) bool {
						lists[i] = append(lists[i], e, e1, e2)
						return true
					})
				}
			}
			if i%2 == 0 {
				counts[i] = s.TriangleCount()
				list()
			} else {
				list()
				counts[i] = s.TriangleCount()
			}
		}(i)
	}
	wg.Wait()
	want := graph.FreezeStatic(s.Materialize()).TriangleCount()
	for i := 0; i < readers; i++ {
		if counts[i] != want || int64(len(lists[i])) != 3*want {
			t.Errorf("reader %d: TriangleCount %d, %d triangles listed; want %d", i, counts[i], len(lists[i])/3, want)
		}
		if !slices.Equal(lists[i], lists[0]) {
			t.Errorf("reader %d listed other triangles than reader 0", i)
		}
	}
}

// TestSnapshotsStableUnderChurn races parallel readers of every derived
// artifact against writer churn; the race detector (make race) owns the
// soundness claim, the assertions pin immutability of whatever snapshot
// a reader holds.
func TestSnapshotsStableUnderChurn(t *testing.T) {
	p := NewPublisherFromGraph(k5PlusPendant())
	stop := make(chan struct{})
	var writer sync.WaitGroup
	var wg sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			v := graph.Vertex(20 + i%7)
			p.Apply([]dynamic.EdgeOp{{U: 1, V: v}, {U: 2, V: v}, {U: 1, V: v, Del: i%2 == 0}})
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sn := p.Acquire()
				edges := sn.NumEdges()
				svg := sn.PlotSVG()
				if len(svg) == 0 {
					t.Error("empty SVG")
					return
				}
				sn.Communities(1)
				sn.CommunitiesAt(2)
				if _, _, ok := sn.CoreOf(graph.NewEdge(1, 2)); !ok {
					t.Error("edge {1,2} vanished from a held snapshot")
					return
				}
				if sn.NumEdges() != edges || !bytes.Equal(svg, sn.PlotSVG()) {
					t.Error("held snapshot changed under churn")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	writer.Wait()
}

package dynamic

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"trikcore/internal/core"
	"trikcore/internal/graph"
)

func randomGraph(n int, p float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddVertex(graph.Vertex(i))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.AddEdge(graph.Vertex(i), graph.Vertex(j))
			}
		}
	}
	return g
}

// assertMatchesStatic recomputes κ from scratch on the engine's current
// graph and fails the test on any disagreement.
func assertMatchesStatic(t *testing.T, en *Engine, context string) {
	t.Helper()
	d := core.Decompose(en.Graph())
	want := d.EdgeKappas()
	got := en.EdgeKappas()
	if len(got) != len(want) {
		t.Fatalf("%s: engine tracks %d edges, graph has %d", context, len(got), len(want))
	}
	for e, k := range want {
		if got[e] != k {
			t.Fatalf("%s: κ(%v) = %d, recompute says %d", context, e, got[e], k)
		}
	}
}

// TestFigure3Example reproduces the worked example of Algorithm 2
// (Figure 3): adding edge AC to the solid graph creates triangles ABC and
// ACE; after the update every edge has κ = 1.
func TestFigure3Example(t *testing.T) {
	// A=1 B=2 C=3 D=4 E=5 F=6.
	g := graph.FromPairs(
		1, 2, // AB κ=0
		2, 3, // BC κ=0
		1, 5, // AE κ=1
		1, 6, // AF κ=1
		5, 6, // EF κ=1
		3, 4, // CD κ=1
		3, 5, // CE κ=1
		4, 5, // DE κ=1
	)
	en := NewEngine(g)
	// Verify the paper's stated initial κ values.
	wantInit := map[graph.Edge]int32{
		graph.NewEdge(1, 2): 0, graph.NewEdge(2, 3): 0,
		graph.NewEdge(1, 5): 1, graph.NewEdge(1, 6): 1, graph.NewEdge(5, 6): 1,
		graph.NewEdge(3, 4): 1, graph.NewEdge(3, 5): 1, graph.NewEdge(4, 5): 1,
	}
	for e, k := range wantInit {
		if got, _ := en.Kappa(e); got != k {
			t.Fatalf("initial κ(%v) = %d, want %d", e, got, k)
		}
	}
	if !en.InsertEdge(1, 3) { // add AC
		t.Fatal("InsertEdge(A,C) returned false")
	}
	for _, e := range en.Graph().Edges() {
		if got, _ := en.Kappa(e); got != 1 {
			t.Fatalf("after adding AC: κ(%v) = %d, want 1", e, got)
		}
	}
	assertMatchesStatic(t, en, "figure 3")
}

func TestInsertDuplicateAndDeleteAbsent(t *testing.T) {
	en := NewEngine(graph.FromPairs(1, 2))
	if en.InsertEdge(1, 2) {
		t.Fatal("inserting existing edge returned true")
	}
	if en.DeleteEdge(1, 3) {
		t.Fatal("deleting absent edge returned true")
	}
	if en.Stats().Insertions != 0 || en.Stats().Deletions != 0 {
		t.Fatal("no-op updates must not count in stats")
	}
}

func TestInsertSelfLoopPanics(t *testing.T) {
	en := NewEngine(graph.New())
	defer func() {
		if recover() == nil {
			t.Fatal("self-loop insert did not panic")
		}
	}()
	en.InsertEdge(2, 2)
}

func TestBuildCliqueIncrementally(t *testing.T) {
	en := NewEngine(graph.New())
	n := graph.Vertex(8)
	for i := graph.Vertex(0); i < n; i++ {
		for j := i + 1; j < n; j++ {
			en.InsertEdge(i, j)
		}
	}
	for _, e := range en.Graph().Edges() {
		if k, _ := en.Kappa(e); k != int32(n)-2 {
			t.Fatalf("κ(%v) = %d, want %d in K%d", e, k, n-2, n)
		}
	}
	assertMatchesStatic(t, en, "incremental K8")
}

func TestDismantleCliqueIncrementally(t *testing.T) {
	g := graph.New()
	for i := graph.Vertex(0); i < 7; i++ {
		for j := i + 1; j < 7; j++ {
			g.AddEdge(i, j)
		}
	}
	en := NewEngine(g)
	for _, e := range g.Edges() {
		en.DeleteEdge(e.U, e.V)
		assertMatchesStatic(t, en, "dismantle K7")
	}
	if en.Graph().NumEdges() != 0 {
		t.Fatal("graph not empty after dismantling")
	}
}

func TestQuickRandomChurnMatchesStatic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(14, 0.3, seed)
		en := NewEngine(g)
		for step := 0; step < 40; step++ {
			u := graph.Vertex(rng.Intn(14))
			v := graph.Vertex(rng.Intn(14))
			if u == v {
				continue
			}
			if en.Graph().HasEdge(u, v) {
				en.DeleteEdge(u, v)
			} else {
				en.InsertEdge(u, v)
			}
			want := core.Decompose(en.Graph()).EdgeKappas()
			got := en.EdgeKappas()
			if len(got) != len(want) {
				return false
			}
			for e, k := range want {
				if got[e] != k {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDenseChurnMatchesStatic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		g := randomGraph(10, 0.65, seed)
		en := NewEngine(g)
		for step := 0; step < 30; step++ {
			u := graph.Vertex(rng.Intn(10))
			v := graph.Vertex(rng.Intn(10))
			if u == v {
				continue
			}
			if en.Graph().HasEdge(u, v) {
				en.DeleteEdge(u, v)
			} else {
				en.InsertEdge(u, v)
			}
			want := core.Decompose(en.Graph()).EdgeKappas()
			for e, k := range want {
				if got, _ := en.Kappa(e); int(got) != k {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestInsertThenDeleteRestoresKappa(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(16, 0.25, seed)
		en := NewEngine(g)
		before := en.EdgeKappas()
		// Pick a non-edge, insert it, delete it again.
		for tries := 0; tries < 50; tries++ {
			u := graph.Vertex(rng.Intn(16))
			v := graph.Vertex(rng.Intn(16))
			if u == v || en.Graph().HasEdge(u, v) {
				continue
			}
			en.InsertEdge(u, v)
			en.DeleteEdge(u, v)
			break
		}
		after := en.EdgeKappas()
		if len(before) != len(after) {
			return false
		}
		for e, k := range before {
			if after[e] != k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveVertexMatchesStatic(t *testing.T) {
	g := randomGraph(18, 0.3, 5)
	en := NewEngine(g)
	if !en.RemoveVertex(7) {
		t.Fatal("RemoveVertex(7) returned false")
	}
	if en.RemoveVertex(7) {
		t.Fatal("double RemoveVertex returned true")
	}
	if en.Graph().HasVertex(7) {
		t.Fatal("vertex still present")
	}
	assertMatchesStatic(t, en, "remove vertex")
}

func TestAddVertexIsolated(t *testing.T) {
	en := NewEngine(graph.New())
	if !en.AddVertex(3) || en.AddVertex(3) {
		t.Fatal("AddVertex bookkeeping wrong")
	}
	if en.Graph().NumVertices() != 1 {
		t.Fatal("vertex not added")
	}
}

func TestApplyDiffMatchesStatic(t *testing.T) {
	old := randomGraph(20, 0.25, 1)
	new := randomGraph(22, 0.22, 2)
	en := NewEngine(old)
	en.ApplyDiff(graph.DiffGraphs(old, new))
	got := en.Graph()
	if got.NumEdges() != new.NumEdges() {
		t.Fatalf("after diff: %d edges, want %d", got.NumEdges(), new.NumEdges())
	}
	assertMatchesStatic(t, en, "apply diff")
}

// TestRule0SingleTriangle verifies the paper's Rule 0 on single-triangle
// changes: closing one triangle changes κ only on edges whose κ equals the
// triangle's minimum μ, and by exactly 1.
func TestRule0SingleTriangle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(14, 0.3, seed)
		// Find a non-edge whose endpoints have exactly one common
		// neighbor, so inserting it adds exactly one triangle.
		var u, v graph.Vertex
		found := false
		for tries := 0; tries < 200 && !found; tries++ {
			u = graph.Vertex(rng.Intn(14))
			v = graph.Vertex(rng.Intn(14))
			if u != v && !g.HasEdge(u, v) && g.Support(u, v) == 1 {
				found = true
			}
		}
		if !found {
			return true // vacuous for this seed
		}
		en := NewEngine(g)
		before := en.EdgeKappas()
		en.InsertEdge(u, v)
		w := g.CommonNeighbors(u, v)[0]
		tri := graph.NewTriangle(u, v, w)
		// μ in the *post-insertion* graph before the triangle activates:
		// the new edge has κ=0 and the two old edges keep their κ.
		mu := 0
		if k := before[graph.NewEdge(u, w)]; true {
			mu = k
			if k2 := before[graph.NewEdge(v, w)]; k2 < mu {
				mu = k2
			}
			if 0 < mu {
				mu = 0 // the new edge starts at κ=0
			}
		}
		after := en.EdgeKappas()
		for e, k := range after {
			prev, existed := before[e]
			if !existed {
				prev = 0 // the new edge
			}
			d := k - prev
			if d != 0 {
				if d != 1 {
					return false
				}
				if prev != mu {
					return false
				}
				if !tri.HasEdge(e) && !existed {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsProgress(t *testing.T) {
	en := NewEngine(graph.New())
	en.InsertEdge(1, 2)
	en.InsertEdge(2, 3)
	en.InsertEdge(1, 3)
	s := en.Stats()
	if s.Insertions != 3 || s.TrianglesProcessed != 1 || s.Promotions == 0 {
		t.Fatalf("stats = %+v", s)
	}
	en.DeleteEdge(1, 3)
	s = en.Stats()
	if s.Deletions != 1 || s.Demotions == 0 {
		t.Fatalf("stats after delete = %+v", s)
	}
	if en.MaxKappa() != 0 {
		t.Fatalf("MaxKappa = %d, want 0", en.MaxKappa())
	}
}

func TestMaxKappaTracksClique(t *testing.T) {
	en := NewEngine(graph.New())
	for i := graph.Vertex(0); i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			en.InsertEdge(i, j)
		}
	}
	if en.MaxKappa() != 4 {
		t.Fatalf("MaxKappa = %d, want 4 for K6", en.MaxKappa())
	}
}

// TestEngineAdoptsDecompositionView checks that the engine's first
// FreezeView is the decomposition's own view and κ, and that one batch
// adding vertices whose ids fall below, between and above the base ids
// (whose flat-built view has an ascending OrigID and no id index) and
// deleting edges then freezes to what a from-scratch freeze builds,
// finds every vertex by PosOf, carries a fresh engine's κ, and leaves
// the adopted view as it was.
func TestEngineAdoptsDecompositionView(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.New()
	for u := graph.Vertex(10); u <= 100; u += 10 {
		for v := u + 10; v <= 100; v += 10 {
			if rng.Intn(3) > 0 {
				g.AddEdge(u, v)
			}
		}
	}
	d := core.Decompose(g)
	before := imageOf(d.S, d.Kappa)
	en := NewEngineFromDecomposition(d)
	s0, k0 := en.FreezeView()
	if s0 != d.S || len(k0) == 0 || &k0[0] != &d.Kappa[0] {
		t.Fatal("the first FreezeView is not the decomposition's view and κ")
	}

	ops := []EdgeOp{
		{U: 5, V: 10}, {U: 5, V: 20}, {U: 1, V: 5}, // below the base ids
		{U: 15, V: 10}, {U: 15, V: 20}, {U: 55, V: 50}, {U: 55, V: 60}, // between them
		{U: 200, V: 100}, {U: 200, V: 90}, {U: 150, V: 200}, // above them
	}
	for _, e := range g.Edges()[:6] {
		ops = append(ops, EdgeOp{U: e.U, V: e.V, Del: true})
	}
	en.ApplyBatch(ops)
	s1, k1 := en.FreezeView()
	if err := graph.DiffViews(s1, en.d.FreezeFresh()); err != nil {
		t.Fatalf("view after the batch differs from a from-scratch freeze: %v", err)
	}
	cur := en.Graph()
	for _, v := range cur.Vertices() {
		if p, ok := s1.PosOf(v); !ok || s1.OrigID[p] != v {
			t.Fatalf("PosOf(%d) = %d, %v", v, p, ok)
		}
	}
	if p, ok := s1.PosOf(7); ok {
		t.Fatalf("PosOf(7) = %d for an absent vertex", p)
	}
	fresh := NewEngine(cur)
	for i, k := range k1 {
		e := s1.EdgeAt(int32(i))
		if want, ok := fresh.Kappa(e); !ok || k != want {
			t.Fatalf("κ(%v) = %d, a fresh engine has %d (present %v)", e, k, want, ok)
		}
	}
	if len(k1) != fresh.NumEdges() {
		t.Fatalf("view has %d edges, a fresh engine %d", len(k1), fresh.NumEdges())
	}
	if !reflect.DeepEqual(imageOf(d.S, d.Kappa), before) {
		t.Fatal("the adopted view or its κ changed")
	}
}

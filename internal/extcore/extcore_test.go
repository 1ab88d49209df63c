package extcore

import (
	"math/rand"
	"slices"
	"testing"

	"trikcore/internal/core"
	"trikcore/internal/graph"
	"trikcore/internal/obs"
)

func randomGraph(n int, p float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New()
	for u := 0; u < n; u++ {
		g.AddVertex(graph.Vertex(u))
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.AddEdge(graph.Vertex(u), graph.Vertex(v))
			}
		}
	}
	return g
}

// budgets exercised by the equivalence tests: tiny (many partitions),
// moderate, and unbounded (the in-memory path).
var testBudgets = []int64{1 << 10, 64 << 10, 0}

func TestDecomposeMatchesInMemory(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"empty", graph.New()},
		{"triangle", graph.FromPairs(1, 2, 2, 3, 3, 1)},
		{"sparse", randomGraph(80, 0.08, 1)},
		{"medium", randomGraph(120, 0.15, 2)},
		{"dense", randomGraph(60, 0.5, 3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := graph.FreezeStatic(tc.g)
			want := core.DecomposeStatic(s, core.Options{})
			for _, budget := range testBudgets {
				got, err := Decompose(s, Options{MemBudget: budget, TempDir: t.TempDir()})
				if err != nil {
					t.Fatalf("budget %d: %v", budget, err)
				}
				if !slices.Equal(got.Kappa, want.Kappa) {
					t.Errorf("budget %d: κ differs from in-memory decomposition", budget)
				}
				if got.MaxKappa != want.MaxKappa {
					t.Errorf("budget %d: MaxKappa = %d, want %d", budget, got.MaxKappa, want.MaxKappa)
				}
			}
		})
	}
}

func TestDecomposeHonorsBudget(t *testing.T) {
	g := randomGraph(100, 0.2, 4)
	s := graph.FreezeStatic(g)
	const budget = 8 << 10
	reg := obs.NewRegistry()
	got, err := Decompose(s, Options{MemBudget: budget, TempDir: t.TempDir(), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Stats.External {
		t.Fatalf("budget %d did not trigger the external path (%d partitions)", budget, got.Stats.Partitions)
	}
	if got.Stats.Partitions < 2 {
		t.Fatalf("Partitions = %d, want ≥ 2", got.Stats.Partitions)
	}
	if got.Stats.PeakResidentBytes > budget {
		t.Errorf("PeakResidentBytes = %d exceeds budget %d", got.Stats.PeakResidentBytes, budget)
	}
	if got.Stats.PeakResidentBytes <= 0 {
		t.Error("PeakResidentBytes not recorded")
	}
	peak := reg.Gauge("trikcore_extcore_resident_peak_bytes", "Largest resident peel state of any single partition activation.", nil)
	if peak.Value() != got.Stats.PeakResidentBytes {
		t.Errorf("gauge reports %d, stats report %d", peak.Value(), got.Stats.PeakResidentBytes)
	}
	parts := reg.Gauge("trikcore_extcore_partitions", "Vertex-range partitions the memory budget produced.", nil)
	if int(parts.Value()) != got.Stats.Partitions {
		t.Errorf("partitions gauge = %d, stats = %d", parts.Value(), got.Stats.Partitions)
	}
	acts := reg.Counter("trikcore_extcore_activations_total", "Partition loads (support slice read, live rows packed).", nil)
	if int64(acts.Value()) != got.Stats.Activations {
		t.Errorf("activations counter = %d, stats = %d", acts.Value(), got.Stats.Activations)
	}
	if got.Stats.SpillRecords == 0 {
		t.Error("no spill records on a multi-partition graph with cross-partition triangles")
	}

	// And the answer is still exact.
	want := core.DecomposeStatic(s, core.Options{})
	if !slices.Equal(got.Kappa, want.Kappa) {
		t.Error("budgeted decomposition diverged from in-memory κ")
	}
}

func TestDecomposeOnMappedView(t *testing.T) {
	g := randomGraph(70, 0.2, 5)
	want := core.DecomposeStatic(graph.FreezeStatic(g), core.Options{})
	path := t.TempDir() + "/g.tkcg"
	if err := graph.WriteMapped(path, graph.FreezeStatic(g)); err != nil {
		t.Fatal(err)
	}
	m, err := graph.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for _, budget := range testBudgets {
		got, err := Decompose(m.Static(), Options{MemBudget: budget, TempDir: t.TempDir()})
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if !slices.Equal(got.Kappa, want.Kappa) {
			t.Errorf("budget %d: κ over mapped view differs from in-memory", budget)
		}
	}
}

func TestPlanPartitions(t *testing.T) {
	g := randomGraph(50, 0.3, 6)
	s := graph.FreezeStatic(g)

	t.Run("unbounded is one partition", func(t *testing.T) {
		parts := planPartitions(s, 0)
		if len(parts) != 1 {
			t.Fatalf("got %d partitions, want 1", len(parts))
		}
		p := parts[0]
		if p.vLo != 0 || int(p.vHi) != s.NumVertices() || p.eLo != 0 || int(p.eHi) != s.NumEdges() {
			t.Errorf("partition %+v does not cover the graph", p)
		}
	})

	t.Run("ranges tile the graph", func(t *testing.T) {
		parts := planPartitions(s, 2<<10)
		if len(parts) < 2 {
			t.Fatalf("tiny budget produced %d partitions", len(parts))
		}
		if parts[0].vLo != 0 || parts[0].eLo != 0 {
			t.Errorf("first partition %+v does not start at zero", parts[0])
		}
		for i := 1; i < len(parts); i++ {
			if parts[i].vLo != parts[i-1].vHi || parts[i].eLo != parts[i-1].eHi {
				t.Errorf("partition %d (%+v) does not abut %d (%+v)", i, parts[i], i-1, parts[i-1])
			}
		}
		last := parts[len(parts)-1]
		if int(last.vHi) != s.NumVertices() || int(last.eHi) != s.NumEdges() {
			t.Errorf("last partition %+v does not end the graph", last)
		}
		// Edge ownership: every edge's lower endpoint is inside the
		// owning partition's vertex range.
		for i := 0; i < s.NumEdges(); i++ {
			e := int32(i)
			var owner *partition
			for pi := range parts {
				if e >= parts[pi].eLo && e < parts[pi].eHi {
					owner = &parts[pi]
					break
				}
			}
			if owner == nil {
				t.Fatalf("edge %d not owned by any partition", i)
			}
			u, _ := s.Endpoints(e)
			if u < owner.vLo || u >= owner.vHi {
				t.Fatalf("edge %d has lower endpoint %d outside owner %+v", i, u, *owner)
			}
		}
	})
}

func TestSpillSetRoundTrip(t *testing.T) {
	ss, err := newSpillSet(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.close()
	// More records than one buffer holds, to force file flushes.
	const n = 1500
	for i := 0; i < n; i++ {
		if err := ss.append(1, int32(i), int32(i%7)); err != nil {
			t.Fatal(err)
		}
	}
	if ss.pending(1) != n || ss.pending(0) != 0 {
		t.Fatalf("pending = %d/%d, want %d/0", ss.pending(1), ss.pending(0), n)
	}
	i := 0
	err = ss.drain(1, func(edge, val int32) error {
		if edge != int32(i) || val != int32(i%7) {
			t.Fatalf("record %d = (%d, %d)", i, edge, val)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != n || ss.pending(1) != 0 {
		t.Fatalf("drained %d records, pending now %d", i, ss.pending(1))
	}
	// Reusable after drain.
	if err := ss.append(1, 42, 9); err != nil {
		t.Fatal(err)
	}
	got := 0
	if err := ss.drain(1, func(edge, val int32) error { got++; return nil }); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("second drain saw %d records, want 1", got)
	}
}

func FuzzExternalDecompose(f *testing.F) {
	f.Add(int64(1), 40, 20)
	f.Add(int64(7), 25, 60)
	f.Add(int64(42), 60, 10)
	f.Fuzz(func(t *testing.T, seed int64, n, pct int) {
		if n < 0 || n > 80 || pct < 0 || pct > 100 {
			t.Skip()
		}
		g := randomGraph(n, float64(pct)/100, seed)
		s := graph.FreezeStatic(g)
		want := core.DecomposeStatic(s, core.Options{})
		// Below about 2,700 edges only the 1 KiB budget plans more than
		// one partition; the seeds' graphs have 161–171 edges.
		for _, budget := range []int64{1 << 10, 64 << 10, 1 << 20, 0} {
			got, err := Decompose(s, Options{MemBudget: budget, TempDir: t.TempDir()})
			if err != nil {
				t.Fatalf("budget %d: %v", budget, err)
			}
			if !slices.Equal(got.Kappa, want.Kappa) {
				t.Fatalf("budget %d: external κ differs from in-memory (seed %d, n %d, pct %d)",
					budget, seed, n, pct)
			}
		}
	})
}

// TestResidentChargesOnlyPackedRows checks the in-memory arm's resident
// charge: the peel packs live rows only for edges in a triangle, so an
// edge in no triangle — a bridge between two K4s, or pendant edges to new
// leaves — adds its 8 B of support and queue and the new vertices' 8 B of
// row bounds, but no row bytes, to PeakResidentBytes and to the gauge.
func TestResidentChargesOnlyPackedRows(t *testing.T) {
	twoK4 := func() *graph.Graph {
		return graph.FromPairs(1, 2, 1, 3, 1, 4, 2, 3, 2, 4, 3, 4,
			5, 6, 5, 7, 5, 8, 6, 7, 6, 8, 7, 8)
	}
	resident := func(g *graph.Graph) int64 {
		t.Helper()
		reg := obs.NewRegistry()
		got, err := Decompose(graph.FreezeStatic(g), Options{Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		if got.Stats.External {
			t.Fatal("unbounded budget ran the partitioned path")
		}
		peak := reg.Gauge("trikcore_extcore_resident_peak_bytes", "Largest resident peel state of any single partition activation.", nil)
		if peak.Value() != got.Stats.PeakResidentBytes {
			t.Fatalf("gauge reports %d, stats report %d", peak.Value(), got.Stats.PeakResidentBytes)
		}
		return got.Stats.PeakResidentBytes
	}

	base := resident(twoK4())
	if want := int64(12*8 + 24*8 + 8*8); base != want {
		t.Errorf("two K4s: resident %d B, want %d", base, want)
	}
	bridged := twoK4()
	bridged.AddEdge(4, 5)
	if got, want := resident(bridged)-base, int64(8); got != want {
		t.Errorf("a bridge in no triangle adds %d B, want %d", got, want)
	}
	pendant := twoK4()
	for leaf := graph.Vertex(10); leaf < 16; leaf++ {
		pendant.AddEdge(1, leaf)
	}
	if got, want := resident(pendant)-base, int64(6*8+6*8); got != want {
		t.Errorf("6 pendant edges add %d B, want %d", got, want)
	}
}

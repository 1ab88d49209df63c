package trikcore_test

// One benchmark per table and figure of the paper (driving the same
// harness as cmd/experiments, at reduced scale so `go test -bench=.`
// completes in minutes), plus micro-benchmarks for the individual
// algorithms and the ablations called out in DESIGN.md.
//
// To regenerate the paper artifacts at full Table I scale, use
// `go run ./cmd/experiments` instead — benchmarks here are about
// relative cost, not absolute reproduction.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trikcore"
	"trikcore/internal/bucket"
	"trikcore/internal/clique"
	"trikcore/internal/core"
	"trikcore/internal/csvbaseline"
	"trikcore/internal/dataset"
	"trikcore/internal/dngraph"
	"trikcore/internal/dynamic"
	"trikcore/internal/events"
	"trikcore/internal/expt"
	"trikcore/internal/extcore"
	"trikcore/internal/gen"
	"trikcore/internal/graph"
	"trikcore/internal/kcore"
	"trikcore/internal/obs"
	"trikcore/internal/obs/trace"
	"trikcore/internal/plot"
	"trikcore/internal/server"
	"trikcore/internal/template"
	"trikcore/internal/view"
)

// benchCfg is the reduced-scale configuration the per-artifact benchmarks
// run at.
func benchCfg() expt.Config {
	return expt.Config{Scale: 0.02, Runs: 1, CSVEdgeLimit: 5_000, DNEdgeLimit: 25_000}
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	r, ok := expt.RunnerByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	cfg := benchCfg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- One benchmark per paper artifact -----------------------------------

func BenchmarkTableI_DatasetGen(b *testing.B)           { runExperiment(b, "tableI") }
func BenchmarkTableII_AlgorithmComparison(b *testing.B) { runExperiment(b, "tableII") }
func BenchmarkTableIII_UpdateVsRecompute(b *testing.B)  { runExperiment(b, "tableIII") }
func BenchmarkFigure6_DensityPlots(b *testing.B)        { runExperiment(b, "figure6") }
func BenchmarkFigure7_PPIPeaks(b *testing.B)            { runExperiment(b, "figure7") }
func BenchmarkFigure8_DualView(b *testing.B)            { runExperiment(b, "figure8") }
func BenchmarkFigure9_NewForm(b *testing.B)             { runExperiment(b, "figure9") }
func BenchmarkFigure10_Bridge(b *testing.B)             { runExperiment(b, "figure10") }
func BenchmarkFigure11_NewJoin(b *testing.B)            { runExperiment(b, "figure11") }
func BenchmarkFigure12_PPIBridge(b *testing.B)          { runExperiment(b, "figure12") }

// --- Shared fixtures ------------------------------------------------------

var (
	fixtureOnce sync.Once
	ppiGraph    *graph.Graph // the full PPI stand-in (15 147 edges)
	astroGraph  *graph.Graph // Astro-Author at 20% (38 194 edges)
)

func fixtures() (*graph.Graph, *graph.Graph) {
	fixtureOnce.Do(func() {
		d, _ := dataset.ByName("PPI")
		ppiGraph = d.Graph()
		a, _ := dataset.ByName("Astro-Author")
		astroGraph = a.GenerateAt(0.2)
	})
	return ppiGraph, astroGraph
}

// --- Micro-benchmarks: the paper's algorithms ----------------------------

func BenchmarkDecompose_PPI(b *testing.B) {
	ppi, _ := fixtures()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Decompose(ppi)
	}
}

func BenchmarkDecompose_Astro20pct(b *testing.B) {
	_, astro := fixtures()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Decompose(astro)
	}
}

// BenchmarkDecompose_PeelOnly isolates steps 7–18 of Algorithm 1 (the
// paper's Table III "Re-compute" accounting) from triangle counting.
func BenchmarkDecompose_PeelOnly_PPI(b *testing.B) {
	ppi, _ := fixtures()
	s := graph.FreezeStatic(ppi)
	support := core.ComputeSupport(s, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.DecomposeWithSupport(s, support)
	}
}

func BenchmarkSupportComputation_PPI(b *testing.B) {
	ppi, _ := fixtures()
	s := graph.FreezeStatic(ppi)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.ComputeSupport(s, 0)
	}
}

func BenchmarkEngineInsertDelete_PPI(b *testing.B) {
	ppi, _ := fixtures()
	en := dynamic.NewEngine(ppi)
	verts := ppi.Vertices()
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := verts[rng.Intn(len(verts))]
		v := verts[rng.Intn(len(verts))]
		if u == v {
			continue
		}
		if en.HasEdge(u, v) {
			en.DeleteEdge(u, v)
			en.InsertEdge(u, v)
		} else {
			en.InsertEdge(u, v)
			en.DeleteEdge(u, v)
		}
	}
}

func BenchmarkCSVBaseline_Stocks(b *testing.B) {
	d, _ := dataset.ByName("Stocks")
	g := d.Graph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		csvbaseline.CoCliqueSizes(g)
	}
}

func BenchmarkTriDN_Stocks(b *testing.B) {
	d, _ := dataset.ByName("Stocks")
	g := d.Graph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dngraph.TriDN(g, dngraph.Options{})
	}
}

func BenchmarkBiTriDN_Stocks(b *testing.B) {
	d, _ := dataset.ByName("Stocks")
	g := d.Graph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dngraph.BiTriDN(g, dngraph.Options{})
	}
}

func BenchmarkDensityPlot_PPI(b *testing.B) {
	ppi, _ := fixtures()
	d := core.Decompose(ppi)
	vals := plot.FromDecomposition(d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plot.Density(ppi, vals)
	}
}

func BenchmarkTemplateBridge_PPI(b *testing.B) {
	study := dataset.PPIStudy()
	spec := template.Bridge(template.InterComplex(study.Complex))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		template.Detect(study.G, spec)
	}
}

func BenchmarkVertexKCore_PPI(b *testing.B) {
	ppi, _ := fixtures()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kcore.Decompose(ppi)
	}
}

func BenchmarkMaximalCliques_Stocks(b *testing.B) {
	d, _ := dataset.ByName("Stocks")
	g := d.Graph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		clique.ForEachMaximal(g, func([]graph.Vertex) bool { n++; return true })
	}
}

func BenchmarkTriangleCount_PPI(b *testing.B) {
	ppi, _ := fixtures()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.TriangleCount(ppi)
	}
}

// --- Ablations (DESIGN.md §5) --------------------------------------------

// BenchmarkAblation_BucketVsResort contrasts the O(1) bucket queue of
// Algorithm 1 against re-sorting the edge list whenever bounds change
// (what "sort them in increasing order of κ̃" would cost without the
// bucket-sort optimization the paper notes in step 7). The bucket variant
// is the shipped implementation; the resort variant simulates peeling
// with a naive priority recomputation.
func BenchmarkAblation_PeelBucketQueue(b *testing.B) {
	ppi, _ := fixtures()
	s := graph.FreezeStatic(ppi)
	support := core.ComputeSupport(s, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := bucket.New(support)
		for {
			if _, _, ok := q.PopMin(); !ok {
				break
			}
		}
	}
}

func BenchmarkAblation_PeelLinearScan(b *testing.B) {
	ppi, _ := fixtures()
	s := graph.FreezeStatic(ppi)
	support := core.ComputeSupport(s, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vals := append([]int32(nil), support...)
		popped := make([]bool, len(vals))
		for n := 0; n < len(vals); n++ {
			best, bestV := -1, int32(1<<30)
			for j, v := range vals {
				if !popped[j] && v < bestV {
					best, bestV = j, v
				}
			}
			popped[best] = true
		}
	}
}

// BenchmarkAblation_ParallelSupport measures the effect of the worker
// pool in the support computation (on a single-core host the difference
// is noise; on multi-core hosts it shows the fan-out win).
func BenchmarkAblation_SupportSerial(b *testing.B) {
	_, astro := fixtures()
	s := graph.FreezeStatic(astro)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.ComputeSupport(s, 1)
	}
}

func BenchmarkAblation_SupportParallel(b *testing.B) {
	_, astro := fixtures()
	s := graph.FreezeStatic(astro)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.ComputeSupport(s, 0)
	}
}

// BenchmarkAblation_UpdateVsRecompute_Astro contrasts one incremental
// edge toggle against one full peel at Astro-Author scale — the
// per-operation version of Table III.
func BenchmarkAblation_IncrementalToggle_Astro(b *testing.B) {
	_, astro := fixtures()
	en := dynamic.NewEngine(astro)
	verts := astro.Vertices()
	rng := rand.New(rand.NewSource(3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := verts[rng.Intn(len(verts))]
		v := verts[rng.Intn(len(verts))]
		if u == v || en.HasEdge(u, v) {
			continue
		}
		en.InsertEdge(u, v)
		en.DeleteEdge(u, v)
	}
}

// BenchmarkEngineChurn measures a full 1% churn round on the Astro
// fixture — delete 1%/2 existing edges, insert 1%/2 fresh ones, then
// apply the inverse ops so every iteration starts from the same graph —
// through the per-edge entry points versus one ApplyBatch per direction.
func BenchmarkEngineChurn(b *testing.B) {
	_, astro := fixtures()
	rng := rand.New(rand.NewSource(9))
	changed := astro.NumEdges() / 100
	changed -= changed % 2
	half := changed / 2

	edges := astro.Edges()
	perm := rng.Perm(len(edges))
	dels := make([]graph.Edge, half)
	for i := range dels {
		dels[i] = edges[perm[i]]
	}
	verts := astro.Vertices()
	seen := map[graph.Edge]bool{}
	var adds []graph.Edge
	for len(adds) < half {
		u := verts[rng.Intn(len(verts))]
		v := verts[rng.Intn(len(verts))]
		if u == v {
			continue
		}
		e := graph.NewEdge(u, v)
		if astro.HasEdgeE(e) || seen[e] {
			continue
		}
		seen[e] = true
		adds = append(adds, e)
	}
	fwd := make([]dynamic.EdgeOp, 0, changed)
	inv := make([]dynamic.EdgeOp, 0, changed)
	for _, e := range dels {
		fwd = append(fwd, dynamic.EdgeOp{U: e.U, V: e.V, Del: true})
		inv = append(inv, dynamic.EdgeOp{U: e.U, V: e.V})
	}
	for _, e := range adds {
		fwd = append(fwd, dynamic.EdgeOp{U: e.U, V: e.V})
		inv = append(inv, dynamic.EdgeOp{U: e.U, V: e.V, Del: true})
	}

	b.Run("PerEdge", func(b *testing.B) {
		en := dynamic.NewEngine(astro)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, ops := range [2][]dynamic.EdgeOp{fwd, inv} {
				for _, op := range ops {
					if op.Del {
						en.DeleteEdge(op.U, op.V)
					} else {
						en.InsertEdge(op.U, op.V)
					}
				}
			}
		}
	})
	b.Run("Batched", func(b *testing.B) {
		en := dynamic.NewEngine(astro)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			en.ApplyBatch(fwd)
			en.ApplyBatch(inv)
		}
	})
	// The parallel sub-benches drive the same churn through the
	// epoch-coordinated apply path. Workers=1 delegates to ApplyBatch and
	// bounds the dispatch overhead of the entry point; Workers=4 measures
	// the region fan-out (on a single-core host the win is bounded by
	// GOMAXPROCS — read the numbers alongside the recorded host shape).
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("Parallel%d", workers), func(b *testing.B) {
			en := dynamic.NewEngine(astro)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				en.ApplyBatchParallel(fwd, workers)
				en.ApplyBatchParallel(inv, workers)
			}
		})
	}
	// The bulk sub-benches are the ingest workload's shape: 1000+1000
	// batches on the 405k-edge Epinions stand-in at 1 and 2 workers. One
	// op is one batch; listings/op counts the row merges κ maintenance
	// ran for it (Stats.TriangleListings).
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("BulkEpinions%d", workers), func(b *testing.B) {
			if testing.Short() {
				b.Skip("405k-edge stand-in; skipped under -short")
			}
			g, batches := epinionsBulk()
			en := dynamic.NewEngine(g)
			en.ApplyBatchParallel(batches[0], workers)
			listings := en.Stats().TriangleListings
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				en.ApplyBatchParallel(batches[1+i%(len(batches)-1)], workers)
			}
			b.StopTimer()
			b.ReportMetric(float64(en.Stats().TriangleListings-listings)/float64(b.N), "listings/op")
		})
	}
}

// BenchmarkFreezeViewEpinions times Engine.FreezeView on the Epinions
// stand-in after each untimed batch: /8 in serve's shape (one serial 8+8
// batch, 8 new edges between random vertices in and the previous
// batch's 8 out) and /1000 in ingest's (the 1000+1000 stream of
// epinionsBulk at 2 workers). The view is built from the previous one,
// as each publication builds it.
func BenchmarkFreezeViewEpinions(b *testing.B) {
	if testing.Short() {
		b.Skip("405k-edge stand-in; skipped under -short")
	}
	g, batches := epinionsBulk()
	b.Run("8", func(b *testing.B) {
		en := dynamic.NewEngine(g)
		n := g.NumVertices()
		rng := rand.New(rand.NewSource(5))
		var prev []dynamic.EdgeOp
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ops := prev
			prev = nil
			for len(prev) < 8 {
				u, v := graph.Vertex(rng.Intn(n)), graph.Vertex(rng.Intn(n))
				if u != v && !en.HasEdge(u, v) {
					prev = append(prev, dynamic.EdgeOp{U: u, V: v})
				}
			}
			for k := range ops {
				ops[k].Del = true
			}
			en.ApplyBatch(append(ops, prev...))
			b.StartTimer()
			en.FreezeView()
		}
	})
	b.Run("1000", func(b *testing.B) {
		en := dynamic.NewEngine(g)
		en.ApplyBatchParallel(batches[0], 2)
		en.FreezeView()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			en.ApplyBatchParallel(batches[1+i%(len(batches)-1)], 2)
			b.StartTimer()
			en.FreezeView()
		}
	})
}

// BenchmarkNewEngineEpinions times NewEngine on the Epinions stand-in
// and reports the heap the engine retains as retained_MB: HeapAlloc
// after a GC with the engine live, less HeapAlloc after a GC before it
// was built, with the graph held on both sides (MB = 10^6 bytes).
func BenchmarkNewEngineEpinions(b *testing.B) {
	if testing.Short() {
		b.Skip("405k-edge stand-in; skipped under -short")
	}
	g, _ := epinionsBulk()
	var retained int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		b.StartTimer()
		en := dynamic.NewEngine(g)
		b.StopTimer()
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(en)
		retained = int64(after.HeapAlloc) - int64(before.HeapAlloc)
		b.StartTimer()
	}
	b.ReportMetric(float64(retained)/1e6, "retained_MB")
}

var (
	bulkOnce    sync.Once
	bulkGraph   *graph.Graph
	bulkBatches [][]dynamic.EdgeOp
)

// epinionsBulk returns the Epinions stand-in and a cyclic bulk-loader
// stream over 32 blocks of 1000 edges drawn from a seeded permutation:
// entry 0 deletes the last block, and entry j+1 deletes block j and
// re-inserts block j-1, so replaying entries 1..32 in a loop keeps
// exactly one block absent.
func epinionsBulk() (*graph.Graph, [][]dynamic.EdgeOp) {
	bulkOnce.Do(func() {
		d, _ := dataset.ByName("Epinions")
		bulkGraph = d.Graph()
		edges := bulkGraph.Edges()
		perm := rand.New(rand.NewSource(11)).Perm(len(edges))
		const nb, size = 32, 1000
		block := func(j int, del bool) []dynamic.EdgeOp {
			j = (j + nb) % nb
			ops := make([]dynamic.EdgeOp, size)
			for i := range ops {
				e := edges[perm[j*size+i]]
				ops[i] = dynamic.EdgeOp{U: e.U, V: e.V, Del: del}
			}
			return ops
		}
		bulkBatches = [][]dynamic.EdgeOp{block(nb-1, true)}
		for j := 0; j < nb; j++ {
			bulkBatches = append(bulkBatches, append(block(j, true), block(j-1, false)...))
		}
	})
	return bulkGraph, bulkBatches
}

// --- CSR kernel benchmarks (ISSUE 1) --------------------------------------

var (
	plOnce  sync.Once
	plGraph *graph.Graph // ~100k-edge Holme–Kim power-law graph
)

// powerLawFixture returns a deterministic power-law cluster graph of about
// 100k edges, the scale at which the CSR layout's constant-factor win over
// map-based adjacency becomes visible.
func powerLawFixture() *graph.Graph {
	plOnce.Do(func() { plGraph = gen.PowerLawCluster(10_050, 10, 0.5, 42) })
	return plGraph
}

func BenchmarkFreezeStatic(b *testing.B) {
	g := powerLawFixture()
	b.Logf("n=%d m=%d", g.NumVertices(), g.NumEdges())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.FreezeStatic(g)
	}
}

func BenchmarkDecomposeStatic(b *testing.B) {
	g := powerLawFixture()
	s := graph.FreezeStatic(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.DecomposeStatic(s, core.Options{})
	}
}

// BenchmarkTriangleCountStatic exercises the Support/TriangleCount path on
// the frozen view (the κ̃ initialization cost of Algorithm 1 without the
// worker pool).
func BenchmarkTriangleCountStatic(b *testing.B) {
	g := powerLawFixture()
	s := graph.FreezeStatic(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.TriangleCount()
	}
}

// --- Set-up of a loaded graph ----------------------------------------------

// epinionsFile writes the Epinions stand-in, the graph perfbench's serve
// and ingest workloads load, as an edge-list file under b's temporary
// directory and returns its path.
func epinionsFile(b *testing.B) string {
	b.Helper()
	d, _ := dataset.ByName("Epinions")
	path := filepath.Join(b.TempDir(), "epinions.txt")
	if err := graph.SaveEdgeListFile(path, d.Graph()); err != nil {
		b.Fatal(err)
	}
	return path
}

// BenchmarkLoadEdgeList parses and bulk-builds the Epinions stand-in's
// edge-list file (405k edges).
func BenchmarkLoadEdgeList(b *testing.B) {
	path := epinionsFile(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.LoadEdgeListFile(path); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseEdgeList streams the Epinions stand-in's edge-list bytes
// through ReadEdgeListFunc, counting edges: the one-thread parse, which
// BenchmarkLoadEdgeList's chunked parse, key sort and build go beyond.
func BenchmarkParseEdgeList(b *testing.B) {
	data, err := os.ReadFile(epinionsFile(b))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := graph.ReadEdgeListFunc(bytes.NewReader(data), func(u, v graph.Vertex) error {
			n++
			return nil
		}); err != nil || n != 405_741 {
			b.Fatalf("parsed %d edges: %v", n, err)
		}
	}
}

// BenchmarkSetupEpinions times what perfbench's serve and ingest set-up
// does: LoadEdgeListFile on the Epinions stand-in's file, then
// server.NewWith with a metrics registry. Its ns/op is that set-up. Each
// iteration then runs, untimed, the stages NewWith runs one at a time
// (the same calls DecomposeWith, NewEngineFromDecomposition and
// view.NewPublisher make) and reports their mean times: load, freeze,
// support, peel, engine, and publish (the first snapshot).
func BenchmarkSetupEpinions(b *testing.B) {
	path := epinionsFile(b)
	stages := []string{"load", "freeze", "support", "peel", "engine", "publish"}
	sum := make([]time.Duration, len(stages))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := graph.LoadEdgeListFile(path)
		if err != nil {
			b.Fatal(err)
		}
		server.NewWith(g, server.Options{Registry: obs.NewRegistry()})

		b.StopTimer()
		t := time.Now()
		lap := func(k int) {
			now := time.Now()
			sum[k] += now.Sub(t)
			t = now
		}
		g, _ = graph.LoadEdgeListFile(path)
		lap(0)
		s := graph.FreezeStatic(g)
		lap(1)
		support := core.ComputeSupport(s, 0)
		lap(2)
		d := core.DecomposeWithSupport(s, support)
		lap(3)
		en := dynamic.NewEngineFromDecomposition(d)
		lap(4)
		view.NewPublisher(en)
		lap(5)
		b.StartTimer()
	}
	for k, name := range stages {
		b.ReportMetric(float64(sum[k].Nanoseconds())/1e6/float64(b.N), name+"-ms")
	}
}

// BenchmarkDualViewAgainstEpinions times the first /dualview read of a
// new version on the Epinions stand-in. Each iteration publishes, with
// the timer stopped, one 8+8 batch (8 new edges between random vertices;
// the previous batch's 8 removed), then times the new snapshot's
// DualViewAgainst the snapshot before it, so the dual view itself is
// never memoized. The older snapshot keeps what the previous iteration
// computed on it as the new side.
func BenchmarkDualViewAgainstEpinions(b *testing.B) {
	d, _ := dataset.ByName("Epinions")
	p := view.NewPublisherFromGraph(d.Graph())
	n := d.Graph().NumVertices()
	rng := rand.New(rand.NewSource(5))
	var prev []dynamic.EdgeOp
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		old := p.Acquire()
		ops := prev
		prev = nil
		for len(prev) < 8 {
			u, v := graph.Vertex(rng.Intn(n)), graph.Vertex(rng.Intn(n))
			if u != v && old.S.EdgeOf(graph.NewEdge(u, v)) < 0 {
				prev = append(prev, dynamic.EdgeOp{U: u, V: v})
			}
		}
		for k := range ops {
			ops[k].Del = true
		}
		p.Apply(append(ops, prev...))
		cur := p.Acquire()
		b.StartTimer()
		cur.DualViewAgainst(old)
	}
}

// --- Out-of-core decomposition (ISSUE 9) ----------------------------------

// BenchmarkDecomposeExternal peels the Astro fixture through the
// partitioned out-of-core path at the CI budget (256 KiB, which planned
// 4 partitions at authoring time) and unbounded (the resident arm, which
// runs core.DecomposeStatic's kernels and should track
// BenchmarkDecompose_Astro20pct).
func BenchmarkDecomposeExternal(b *testing.B) {
	_, astro := fixtures()
	s := graph.FreezeStatic(astro)
	for _, bc := range []struct {
		name   string
		budget int64
	}{
		{"Budget256KiB", 256 << 10},
		{"Unbounded", 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := extcore.Decompose(s, extcore.Options{MemBudget: bc.budget, TempDir: b.TempDir()})
				if err != nil {
					b.Fatal(err)
				}
				if bc.budget > 0 && !res.Stats.External {
					b.Fatal("budget did not trigger the external path")
				}
			}
		})
	}
}

// --- Server mixed workload (ISSUE 4) --------------------------------------

// BenchmarkServerMixedWorkload drives the HTTP analytics service with the
// read-dominated traffic mix the ROADMAP targets: 95% GET requests spread
// over /stats, /kappa, /histogram, /plot.txt and /plot.svg, and 5%
// POST /edges batches that toggle a small clique on and off. Requests run
// through the real handler (no network) from parallel goroutines, so the
// number measures the serving layer itself: snapshot acquisition, derived
// artifact reuse and writer interference.
//
// The Uninstrumented variant is the historical baseline (no registry, no
// middleware); Instrumented runs the identical workload with full metrics
// wiring, bounding observability overhead on the serving path; Traced adds
// the flight recorder on top, bounding per-request span capture as well —
// the tracing budget is ≤5% over the instrumented number.
func BenchmarkServerMixedWorkload(b *testing.B) {
	b.Run("Uninstrumented", func(b *testing.B) {
		benchServerMixed(b, server.Options{})
	})
	b.Run("Instrumented", func(b *testing.B) {
		benchServerMixed(b, server.Options{Registry: obs.NewRegistry()})
	})
	b.Run("Traced", func(b *testing.B) {
		benchServerMixed(b, server.Options{
			Registry: obs.NewRegistry(),
			Trace:    trace.New(trace.Options{Ring: trace.DefaultRing}),
		})
	})
}

func benchServerMixed(b *testing.B, opts server.Options) {
	g := gen.PowerLawCluster(2_000, 8, 0.5, 13)
	h := server.NewWith(g, opts).Handler()
	probe := g.Edges()[0]
	reads := []string{
		"/stats",
		fmt.Sprintf("/kappa?u=%d&v=%d", probe.U, probe.V),
		"/histogram",
		"/plot.txt",
		"/plot.svg",
	}
	// The write mix toggles a 5-clique among fresh vertex ids; ApplyBatch
	// tolerates redundant adds/removes, so interleaving is harmless.
	var members []graph.Vertex
	for v := graph.Vertex(5_000); v < 5_005; v++ {
		members = append(members, v)
	}
	var pairs [][2]graph.Vertex
	for i := 0; i < len(members); i++ {
		for j := i + 1; j < len(members); j++ {
			pairs = append(pairs, [2]graph.Vertex{members[i], members[j]})
		}
	}
	addBody, _ := json.Marshal(server.EdgesRequest{Add: pairs})
	delBody, _ := json.Marshal(server.EdgesRequest{Remove: pairs})

	var ctr atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := ctr.Add(1)
			if i%20 == 0 { // 5% writes, alternating add/remove batches
				body := addBody
				if i%40 == 0 {
					body = delBody
				}
				req := httptest.NewRequest(http.MethodPost, "/edges", bytes.NewReader(body))
				h.ServeHTTP(httptest.NewRecorder(), req)
				continue
			}
			req := httptest.NewRequest(http.MethodGet, reads[i%int64(len(reads))], nil)
			h.ServeHTTP(httptest.NewRecorder(), req)
		}
	})
}

// --- Facade sanity benchmark ----------------------------------------------

func BenchmarkFacadeDecomposePlot(b *testing.B) {
	ppi, _ := fixtures()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := trikcore.Decompose(ppi)
		trikcore.DensityPlot(ppi, d)
	}
}

// --- Benchmarks for the extension subsystems ------------------------------

func BenchmarkTrackedEngineToggle_PPI(b *testing.B) {
	ppi, _ := fixtures()
	te := dynamic.NewTrackedEngine(ppi)
	verts := ppi.Vertices()
	rng := rand.New(rand.NewSource(5))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := verts[rng.Intn(len(verts))]
		v := verts[rng.Intn(len(verts))]
		if u == v || te.HasEdge(u, v) {
			continue
		}
		te.InsertEdge(u, v)
		te.DeleteEdge(u, v)
	}
}

func BenchmarkBinaryWrite_PPI(b *testing.B) {
	ppi, _ := fixtures()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := graph.WriteBinary(io.Discard, ppi); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBinaryRoundTrip_PPI(b *testing.B) {
	ppi, _ := fixtures()
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, ppi); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.ReadBinary(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEventDetection_Wiki(b *testing.B) {
	pair := gen.WikiSnapshots(2000, 11000, 100, 77)
	oldC := events.CommunitiesAt(pair.Snap1, 3)
	newC := events.CommunitiesAt(pair.Snap2, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		events.Detect(oldC, newC, events.Options{})
	}
}

func BenchmarkDualViewBuild_Wiki(b *testing.B) {
	pair := gen.WikiSnapshots(2000, 11000, 100, 78)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plot.BuildDualView(pair.Snap1, pair.Snap2, plot.DualViewOptions{})
	}
}

func BenchmarkHierarchy_PPI(b *testing.B) {
	ppi, _ := fixtures()
	d := core.Decompose(ppi)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Hierarchy()
	}
}

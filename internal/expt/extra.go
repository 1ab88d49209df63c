package expt

import (
	"fmt"
	"math/rand"
	"slices"

	"trikcore/internal/core"
	"trikcore/internal/dataset"
	"trikcore/internal/dngraph"
	"trikcore/internal/dynamic"
	"trikcore/internal/extcore"
	"trikcore/internal/graph"
	"trikcore/internal/stats"
	"trikcore/internal/table"
)

// Extras returns experiments beyond the paper's artifacts: scaling and
// ablation studies of this implementation. They are reported separately
// from the reproduction tables.
func Extras() []Runner {
	return []Runner{
		{"extraSweep", "EXTRA: decomposition scaling across graph sizes", ExtraSweep},
		{"extraChurn", "EXTRA: update-vs-recompute crossover across churn rates", ExtraChurn},
		{"extraExternal", "EXTRA: out-of-core decomposition across memory budgets", ExtraExternal},
	}
}

// ExtraExternal sweeps the out-of-core peel's memory budget on the
// Astro fixture, charting the resident-memory / spill-traffic trade the
// partitioned schedule makes while asserting the κ output never moves.
func ExtraExternal(cfg Config) (*table.Table, error) {
	cfg = cfg.normalized()
	d, _ := dataset.ByName("Astro-Author")
	g := cfg.instance(d)
	s := graph.FreezeStatic(g)

	var want *core.Decomposition
	memTime := stats.Timed(func() { want = core.DecomposeStatic(s, core.Options{}) })

	t := &table.Table{
		Title:  "EXTRA: out-of-core decomposition budget sweep (Astro-Author)",
		Header: []string{"budget", "partitions", "sweeps", "spill MiB", "peak resident KiB", "time s", "vs in-memory"},
	}
	t.AddRow("unbounded", 1, 1, "0", fmt.Sprintf("%.0f", float64(4*s.NumEdges())/1024),
		stats.FormatSeconds(memTime.Seconds()), "=")
	for _, budget := range []int64{1 << 20, 256 << 10, 64 << 10} {
		cfg.logf("extraExternal: budget %d bytes", budget)
		var res *extcore.Result
		var err error
		extTime := stats.Timed(func() {
			res, err = extcore.Decompose(s, extcore.Options{MemBudget: budget})
		})
		if err != nil {
			return nil, err
		}
		if !slices.Equal(res.Kappa, want.Kappa) {
			return nil, fmt.Errorf("extraExternal: budget %d diverged from in-memory κ", budget)
		}
		t.AddRow(fmt.Sprintf("%d KiB", budget>>10), res.Stats.Partitions, res.Stats.Sweeps,
			fmt.Sprintf("%.2f", float64(res.Stats.SpillBytes)/(1<<20)),
			fmt.Sprintf("%.0f", float64(res.Stats.PeakResidentBytes)/1024),
			stats.FormatSeconds(extTime.Seconds()), "=")
	}
	t.AddNote("the unbounded row is the in-memory DecomposeStatic baseline; its peak column is the support array alone")
	t.AddNote("κ is verified byte-identical to the in-memory decomposition at every budget")
	return t, nil
}

// ExtraSweep measures how the decomposition and the TriDN baseline scale
// with graph size on one dataset family (Epinions-shaped), exposing the
// near-linear cost in |triangles| that the paper's complexity analysis
// promises.
func ExtraSweep(cfg Config) (*table.Table, error) {
	cfg = cfg.normalized()
	d, _ := dataset.ByName("Epinions")
	t := &table.Table{
		Title:  "EXTRA: scaling sweep (Epinions-shaped graphs)",
		Header: []string{"fraction", "|V|", "|E|", "triangles", "decompose s", "peel s", "TriDN s", "TriDN iters"},
	}
	for _, frac := range []float64{0.05, 0.1, 0.2, 0.4} {
		f := frac * cfg.Scale
		g := d.GenerateAt(f)
		cfg.logf("extraSweep: fraction %.3g (%d edges)", f, g.NumEdges())
		s := graph.FreezeStatic(g)
		tris := s.TriangleCount()

		decTime := stats.Timed(func() { core.Decompose(g) })
		support := core.ComputeSupport(s, 0)
		peelTime := stats.Timed(func() { core.DecomposeWithSupport(s, support) })

		dnCell, iterCell := "-", "-"
		if g.NumEdges() <= cfg.DNEdgeLimit {
			var r *dngraph.Result
			dnTime := stats.Timed(func() { r = dngraph.TriDN(g, dngraph.Options{}) })
			dnCell = stats.FormatSeconds(dnTime.Seconds())
			iterCell = fmt.Sprintf("%d", r.Iterations)
		}
		t.AddRow(fmt.Sprintf("%.3g", f), g.NumVertices(), g.NumEdges(), tris,
			stats.FormatSeconds(decTime.Seconds()),
			stats.FormatSeconds(peelTime.Seconds()), dnCell, iterCell)
	}
	t.AddNote("peel = steps 7-18 of Algorithm 1 only (support counting excluded)")
	return t, nil
}

// ExtraChurn sweeps the churn rate on one dataset to locate the
// crossover where re-computation beats incremental maintenance — the
// design-space question behind Table III.
func ExtraChurn(cfg Config) (*table.Table, error) {
	cfg = cfg.normalized()
	d, _ := dataset.ByName("Astro-Author")
	g := cfg.instance(d)
	t := &table.Table{
		Title:  "EXTRA: churn-rate sweep (Astro-Author)",
		Header: []string{"churn %", "edges changed", "per-edge s", "batched s", "re-compute s", "winner"},
	}
	for _, pct := range []float64{0.1, 0.5, 1, 5, 10} {
		changed := int(float64(g.NumEdges()) * pct / 100)
		if changed < 2 {
			changed = 2
		}
		changed -= changed % 2
		cfg.logf("extraChurn: %.2g%% (%d edges)", pct, changed)

		rng := rand.New(rand.NewSource(4242))
		adds, dels := churnPlan(g, changed, rng)
		ops := make([]dynamic.EdgeOp, 0, len(dels)+len(adds))
		for _, e := range dels {
			ops = append(ops, dynamic.EdgeOp{U: e.U, V: e.V, Del: true})
		}
		for _, e := range adds {
			ops = append(ops, dynamic.EdgeOp{U: e.U, V: e.V})
		}

		// Same ops one batch of one at a time and as one batch, each on
		// its own engine over the base graph.
		en := dynamic.NewEngine(g)
		updTime := stats.Timed(func() {
			for _, op := range ops {
				en.ApplyBatch([]dynamic.EdgeOp{op})
			}
		})
		enB := dynamic.NewEngine(g)
		batTime := stats.Timed(func() { enB.ApplyBatch(ops) })

		s := graph.FreezeStatic(en.Graph())
		support := core.ComputeSupport(s, 0)
		recTime := stats.Timed(func() { core.DecomposeWithSupport(s, support) })

		winner := "batched"
		if updTime < batTime && updTime < recTime {
			winner = "per-edge"
		} else if recTime < batTime {
			winner = "re-compute"
		}
		t.AddRow(fmt.Sprintf("%.2g", pct), changed,
			stats.FormatSeconds(updTime.Seconds()),
			stats.FormatSeconds(batTime.Seconds()),
			stats.FormatSeconds(recTime.Seconds()), winner)
	}
	t.AddNote("incremental updating wins at low churn and loses once a large fraction of the graph changes — the regime boundary Table III's 1%% sits well inside")
	t.AddNote("per-edge = each op as its own batch of one; batched = the same ops as one ApplyBatch on a fresh engine (dedup + one scratch pass)")
	return t, nil
}

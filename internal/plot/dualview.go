package plot

import (
	"fmt"
	"strings"

	"trikcore/internal/core"
	"trikcore/internal/graph"
)

// DualView implements Algorithm 3: a pair of density plots that make the
// evolution of clique-like structures across two graph snapshots visually
// traceable. Before plots the full clique distribution of the old graph;
// After plots only the structures touched by newly added edges (all other
// edges plot at co_clique_size 0). Markers tie each selected peak of
// After back to its vertices' positions in Before, providing the paper's
// "cognitive correspondence".
type DualView struct {
	Before, After Series
	Markers       []CorrespondenceMarker
}

// CorrespondenceMarker links one structure of the After plot to the
// positions of the same vertices in the Before plot.
type CorrespondenceMarker struct {
	// Label names the marker ("1", "2", ... by After-peak rank).
	Label string
	// Peak is the After-plot peak the marker highlights.
	Peak Peak
	// BeforePositions are the X positions in Before of the peak's
	// vertices (vertices absent from the old graph are omitted — they are
	// genuinely new).
	BeforePositions []int
	// NewVertices are peak vertices with no position in Before.
	NewVertices []graph.Vertex
}

// DualViewOptions configure BuildDualView.
type DualViewOptions struct {
	// TopK is how many After-plot peaks to mark (default 3, matching the
	// paper's Wiki case study).
	TopK int
	// MinWidth is the minimum peak width considered (default 3).
	MinWidth int
}

// BuildDualView runs Algorithm 3 over two snapshots:
//
//	1–3: decompose old, plot its clique distribution (Before);
//	4–5: decompose new, but keep co_clique_size only for edges added
//	     since old (others plot 0);
//	6:   plot the changed-clique distribution (After);
//	7:   mark the TopK densest After peaks and locate their vertices in
//	     Before.
//
// This entry point decomposes both snapshots from scratch and plots on
// the decompositions' own views. When the κ of a snapshot is already
// maintained (Algorithm 3 step 4 as the paper states it, "execute
// Algorithm 2"), call BuildDualViewStatic with it instead; the two
// produce identical plots because the engine maintains exact κ.
func BuildDualView(old, new *graph.Graph, opts DualViewOptions) DualView {
	dOld := core.Decompose(old)
	dNew := core.Decompose(new)
	before := DensityStatic(dOld.S, CoCliqueValues(dOld.Kappa))
	return BuildDualViewStatic(dOld.S, dNew.S, before, CoCliqueValues(dNew.Kappa), opts)
}

// BuildDualViewStatic is BuildDualView over two frozen views: before is
// old's density series, and newCo is new's co_clique_size (κ+2, however
// obtained) indexed by new's edge ids. An edge of new counts as added
// when old has no edge between the same endpoints, whatever the two
// views' vertex numbering.
func BuildDualViewStatic(old, new *graph.Static, before Series, newCo []int32, opts DualViewOptions) DualView {
	if opts.TopK <= 0 {
		opts.TopK = 3
	}
	if opts.MinWidth <= 0 {
		opts.MinWidth = 3
	}
	// Translate each of new's positions to old's once (-1 where the
	// vertex is new); each edge then costs one row search in old.
	oldPos := make([]int32, new.NumVertices())
	for u, v := range new.OrigID {
		oldPos[u], _ = old.PosOf(v)
	}
	changed := make([]int32, new.NumEdges())
	for i := range changed {
		u, v := new.Endpoints(int32(i))
		if pu, pv := oldPos[u], oldPos[v]; pu < 0 || pv < 0 || old.EdgeIndex(pu, pv) < 0 {
			changed[i] = newCo[i]
		}
	}
	after := DensityStatic(new, changed)

	dv := DualView{Before: before, After: after}
	for i, pk := range after.TopPeaks(opts.TopK, opts.MinWidth) {
		mk := CorrespondenceMarker{Label: fmt.Sprintf("%d", i+1), Peak: pk}
		var oldVerts []graph.Vertex
		for _, v := range pk.Vertices {
			if _, ok := old.PosOf(v); ok {
				oldVerts = append(oldVerts, v)
			} else {
				mk.NewVertices = append(mk.NewVertices, v)
			}
		}
		mk.BeforePositions = before.Positions(oldVerts)
		dv.Markers = append(dv.Markers, mk)
	}
	return dv
}

// Summary renders a text description of the dual view: each marker, its
// After peak, and where its vertices sit in Before — the narrative the
// paper walks through for Figure 8 ("some vertices are in a 10-vertex
// clique, and one single vertex is in a 5-vertex clique").
func (dv DualView) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "dual view: before=%d vertices, after=%d vertices, %d markers\n",
		dv.Before.Len(), dv.After.Len(), len(dv.Markers))
	for _, mk := range dv.Markers {
		fmt.Fprintf(&b, "  marker %s: %v", mk.Label, mk.Peak)
		if len(mk.BeforePositions) > 0 {
			fmt.Fprintf(&b, "; %d vertices found in before plot at %v",
				len(mk.BeforePositions), compressRuns(mk.BeforePositions))
		}
		if len(mk.NewVertices) > 0 {
			fmt.Fprintf(&b, "; %d brand-new vertices", len(mk.NewVertices))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// BeforeRegions groups a marker's Before positions into contiguous runs
// (maximal sequences of adjacent plot positions). Each run is one place
// in the old plot the structure draws from; the Figure 8 green-triangle
// example has two runs — a 10-vertex clique and a single vertex.
func (mk CorrespondenceMarker) BeforeRegions() [][2]int {
	return runs(mk.BeforePositions)
}

// runs converts a sorted int slice into inclusive [start, end] runs of
// consecutive values.
func runs(xs []int) [][2]int {
	var out [][2]int
	for i := 0; i < len(xs); {
		j := i
		for j+1 < len(xs) && xs[j+1] == xs[j]+1 {
			j++
		}
		out = append(out, [2]int{xs[i], xs[j]})
		i = j + 1
	}
	return out
}

// compressRuns renders runs compactly, e.g. "[3-12 40]".
func compressRuns(xs []int) string {
	var parts []string
	for _, r := range runs(xs) {
		if r[0] == r[1] {
			parts = append(parts, fmt.Sprintf("%d", r[0]))
		} else {
			parts = append(parts, fmt.Sprintf("%d-%d", r[0], r[1]))
		}
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// MarkersForSVG converts the dual view's After-plot markers to SVG marker
// bands (for RenderSVG of the After series).
func (dv DualView) MarkersForSVG() []SVGMarker {
	colors := []string{"green", "red", "orange", "purple", "brown"}
	var out []SVGMarker
	for i, mk := range dv.Markers {
		out = append(out, SVGMarker{
			Start: mk.Peak.Start,
			End:   mk.Peak.End,
			Color: colors[i%len(colors)],
			Label: mk.Label,
		})
	}
	return out
}

// BeforeMarkersForSVG converts the correspondence regions in the Before
// plot to SVG marker bands (for RenderSVG of the Before series), using
// the same color per label as MarkersForSVG.
func (dv DualView) BeforeMarkersForSVG() []SVGMarker {
	colors := []string{"green", "red", "orange", "purple", "brown"}
	var out []SVGMarker
	for i, mk := range dv.Markers {
		for _, r := range mk.BeforeRegions() {
			out = append(out, SVGMarker{
				Start: r[0],
				End:   r[1],
				Color: colors[i%len(colors)],
				Label: mk.Label,
			})
		}
	}
	return out
}

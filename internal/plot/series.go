// Package plot implements the paper's density-plot visualization: an
// OPTICS-style enumeration of vertices where each vertex is drawn at the
// co-clique size of one of its edges, so that clique-like structures
// appear as flat plateaus (Section V, "Visualizing Clique-like
// Structures").
//
// The same machinery renders plots for the Triangle K-Core proxy
// (co_clique_size = κ+2, Algorithm 3 step 2), for the exact CSV baseline
// (Figure 6's qualitative comparison), for template-pattern subgraphs
// (Figures 9–12) and for dual-view correspondence across dynamic
// snapshots (Figure 8). One ordering body serves all of them, on a frozen
// CSR view (graph.Static): DensityStatic and BuildDualViewStatic take a
// view and values by edge id, and the Graph-based Density and
// BuildDualView freeze or decompose their inputs first.
package plot

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"

	"trikcore/internal/graph"
)

// Point is one plotted vertex: its position on the X axis is its index in
// the series, its Y value is Height.
type Point struct {
	V      graph.Vertex
	Height int
}

// Series is a density plot: vertices in traversal order with their
// plotted heights.
type Series struct {
	Points []Point
}

// Len returns the number of plotted vertices.
func (s Series) Len() int { return len(s.Points) }

// Heights returns the Y values in plot order.
func (s Series) Heights() []int {
	out := make([]int, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.Height
	}
	return out
}

// MaxHeight returns the largest Y value (0 for an empty series).
func (s Series) MaxHeight() int {
	max := 0
	for _, p := range s.Points {
		if p.Height > max {
			max = p.Height
		}
	}
	return max
}

// PositionOf returns the X position of vertex v, or -1 if v is not
// plotted.
func (s Series) PositionOf(v graph.Vertex) int {
	for i, p := range s.Points {
		if p.V == v {
			return i
		}
	}
	return -1
}

// Positions returns the X positions of the given vertices (omitting any
// that are not plotted), sorted ascending.
func (s Series) Positions(verts []graph.Vertex) []int {
	want := make(map[graph.Vertex]bool, len(verts))
	for _, v := range verts {
		want[v] = true
	}
	var out []int
	for i, p := range s.Points {
		if want[p.V] {
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}

// Peak is a maximal run of consecutive points sharing one height — the
// flat plateaus that indicate potential cliques in a CSV-style plot. A
// plateau of width w at height h suggests a near-clique of about w
// vertices of order about h.
type Peak struct {
	Start, End int // point indices, inclusive
	Height     int
	Vertices   []graph.Vertex
}

// Width returns the number of vertices under the peak.
func (p Peak) Width() int { return p.End - p.Start + 1 }

// String renders the peak compactly.
func (p Peak) String() string {
	return fmt.Sprintf("peak[h=%d w=%d @%d..%d]", p.Height, p.Width(), p.Start, p.End)
}

// Peaks returns the maximal constant-height runs with height ≥ minHeight
// and width ≥ minWidth, in plot order.
func (s Series) Peaks(minHeight, minWidth int) []Peak {
	var peaks []Peak
	i := 0
	for i < len(s.Points) {
		j := i
		for j+1 < len(s.Points) && s.Points[j+1].Height == s.Points[i].Height {
			j++
		}
		h, w := s.Points[i].Height, j-i+1
		if h >= minHeight && w >= minWidth {
			pk := Peak{Start: i, End: j, Height: h}
			for k := i; k <= j; k++ {
				pk.Vertices = append(pk.Vertices, s.Points[k].V)
			}
			peaks = append(peaks, pk)
		}
		i = j + 1
	}
	return peaks
}

// TopPeaks returns up to k peaks of width ≥ minWidth ranked by height
// (ties broken by width, then position).
func (s Series) TopPeaks(k, minWidth int) []Peak {
	peaks := s.Peaks(1, minWidth)
	sort.SliceStable(peaks, func(a, b int) bool {
		if peaks[a].Height != peaks[b].Height {
			return peaks[a].Height > peaks[b].Height
		}
		if peaks[a].Width() != peaks[b].Width() {
			return peaks[a].Width() > peaks[b].Width()
		}
		return peaks[a].Start < peaks[b].Start
	})
	if len(peaks) > k {
		peaks = peaks[:k]
	}
	return peaks
}

// Comparison quantifies how similar two density plots are, vertex by
// vertex — the reproducible content of the paper's Figure 6, which argues
// the Triangle K-Core plot and the CSV plot expose the same structure.
type Comparison struct {
	// Vertices is the number of vertices present in both series.
	Vertices int
	// ExactAgreement is the fraction of shared vertices plotted at the
	// same height in both series.
	ExactAgreement float64
	// MeanAbsDiff is the mean |height_a - height_b| over shared vertices.
	MeanAbsDiff float64
	// MaxAbsDiff is the largest per-vertex height difference.
	MaxAbsDiff int
}

// Compare computes per-vertex height agreement between two series
// (ignoring X order, which legitimately differs between methods — the
// paper calls these "phase shifts").
func Compare(a, b Series) Comparison {
	hb := make(map[graph.Vertex]int, len(b.Points))
	for _, p := range b.Points {
		hb[p.V] = p.Height
	}
	var c Comparison
	var sumAbs int
	for _, p := range a.Points {
		h, ok := hb[p.V]
		if !ok {
			continue
		}
		c.Vertices++
		d := p.Height - h
		if d < 0 {
			d = -d
		}
		sumAbs += d
		if d == 0 {
			c.ExactAgreement++
		}
		if d > c.MaxAbsDiff {
			c.MaxAbsDiff = d
		}
	}
	if c.Vertices > 0 {
		c.ExactAgreement /= float64(c.Vertices)
		c.MeanAbsDiff = float64(sumAbs) / float64(c.Vertices)
	}
	return c
}

// WriteCSV exports the series as CSV rows (position, vertex, height) for
// external plotting tools.
func (s Series) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"position", "vertex", "height"}); err != nil {
		return fmt.Errorf("plot: writing csv: %w", err)
	}
	for i, p := range s.Points {
		rec := []string{
			strconv.Itoa(i),
			strconv.FormatInt(int64(p.V), 10),
			strconv.Itoa(p.Height),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("plot: writing csv: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("plot: writing csv: %w", err)
	}
	return nil
}

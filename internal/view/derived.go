package view

import (
	"trikcore/internal/core"
	"trikcore/internal/dynamic"
	"trikcore/internal/events"
	"trikcore/internal/graph"
	"trikcore/internal/plot"
)

// Memo keys. Parameterless artifacts share one enum; parameterized ones
// use distinct typed keys so (kind, argument) pairs stay comparable and
// collision-free.
type memoKey int

const (
	keyCoClique memoKey = iota
	keySeries
	keyPlotSVG
	keyPlotASCII
	keyGraph
	keyKappaChanges
)

type commsKey int32    // Communities(k)
type commListKey int32 // CommunitiesAt(k)
type dualKey uint64    // DualViewAgainst(old.Version)
type dualSVGKey uint64 // DualViewSVGAgainst(old.Version)

// Rendering defaults shared by every published plot; fixed so rendered
// bytes are a pure function of the snapshot.
const (
	plotTitle               = "Triangle K-Core density plot"
	dualViewTitle           = "changed cliques since snapshot"
	asciiWidth, asciiHeight = 120, 24
)

// CoClique returns the flat co-clique values κ(e)+2 by dense edge id
// (Algorithm 3 step 2). Shared; do not mutate.
func (sn *Snapshot) CoClique() []int32 {
	return sn.Memo(keyCoClique, func() any { return plot.CoCliqueValues(sn.Kappa) }).([]int32)
}

// DensitySeries returns the snapshot's OPTICS-ordered density plot,
// computed once per version via the CSR traversal. Shared; do not mutate.
func (sn *Snapshot) DensitySeries() plot.Series {
	return sn.Memo(keySeries, func() any {
		return plot.DensityStatic(sn.S, sn.CoClique())
	}).(plot.Series)
}

// PlotSVG returns the rendered SVG density plot. Shared; do not mutate.
func (sn *Snapshot) PlotSVG() []byte {
	return sn.Memo(keyPlotSVG, func() any {
		return []byte(plot.RenderSVG(sn.DensitySeries(), plot.SVGOptions{Title: plotTitle}))
	}).([]byte)
}

// PlotASCII returns the rendered ASCII density plot. Shared; do not
// mutate.
func (sn *Snapshot) PlotASCII() []byte {
	return sn.Memo(keyPlotASCII, func() any {
		return []byte(plot.RenderASCII(sn.DensitySeries(), asciiWidth, asciiHeight))
	}).([]byte)
}

// Graph materializes the snapshot as a standalone mutable Graph,
// computed once per version. Nothing in the serving path calls it:
// outside tests, cmd/perfbench's traced replay is its last caller, and
// the perfbench item in ROADMAP.md removes that caller. Shared; do not
// mutate.
func (sn *Snapshot) Graph() *graph.Graph {
	return sn.Memo(keyGraph, func() any { return sn.S.Materialize() }).(*graph.Graph)
}

// KappaChanges returns the net κ changes of the batch that produced this
// snapshot's version, sorted by edge: the κ diff against the publisher's
// snapshot one version earlier, with From = -1 for inserted edges and
// To = -1 for deleted ones (dynamic.NetChanges over the batch's change
// log). It is computed on first use, so publications nobody diffs never
// pay for it. Shared; do not mutate.
func (sn *Snapshot) KappaChanges() []dynamic.KappaChange {
	return sn.Memo(keyKappaChanges, func() any { return dynamic.NetChanges(sn.changes) }).([]dynamic.KappaChange)
}

// Communities returns the triangle-connected components of the κ ≥ k
// subgraph, each a sorted edge list, components ordered by first edge —
// core.Communities over the frozen view, memoized per (snapshot, k); an
// empty level is an empty, non-nil list. Shared; do not mutate.
func (sn *Snapshot) Communities(k int32) [][]graph.Edge {
	return sn.Memo(commsKey(k), func() any {
		if comms := core.Communities(sn.S, sn.Kappa, k); comms != nil {
			return comms
		}
		return [][]graph.Edge{}
	}).([][]graph.Edge)
}

// CoreOf returns the maximum Triangle K-Core of e — the
// triangle-connected component of e among edges with κ ≥ κ(e) — as a
// sorted edge list, plus κ(e). The boolean is false when e is not an
// edge of the snapshot. Not memoized (the argument space is the edge
// set); runs lock-free on the frozen view.
func (sn *Snapshot) CoreOf(e graph.Edge) ([]graph.Edge, int32, bool) {
	eid := sn.S.EdgeOf(e)
	if eid < 0 {
		return nil, 0, false
	}
	return core.MaxCore(sn.S, sn.Kappa, eid), sn.Kappa[eid], true
}

// CommunitiesAt returns the level-k communities in the events package's
// vertex-set form, memoized per (snapshot, k) — what lets /events run
// from two snapshots' maintained κ with no decomposition at all. Shared;
// do not mutate.
func (sn *Snapshot) CommunitiesAt(k int32) []events.Community {
	return sn.Memo(commListKey(k), func() any {
		return events.CommunitiesOf(sn.Communities(k))
	}).([]events.Community)
}

// DualViewAgainst builds the dual-view plot (Algorithm 3's dual view)
// from the old snapshot to this one, memoized on this snapshot keyed by
// the old version — repeated requests at an unchanged (old, new) pair do
// no plotting work. Before is old's memoized DensitySeries, and After
// plots this snapshot's CSR with the co-clique values of the edges old
// lacks; both sides use their maintained κ, and nothing is
// re-decomposed or re-materialized. Shared; do not mutate.
func (sn *Snapshot) DualViewAgainst(old *Snapshot) *plot.DualView {
	return sn.Memo(dualKey(old.Version), func() any {
		dv := plot.BuildDualViewStatic(old.S, sn.S, old.DensitySeries(), sn.CoClique(), plot.DualViewOptions{})
		return &dv
	}).(*plot.DualView)
}

// DualViewSVGAgainst returns the rendered dual-view SVG against old,
// memoized like DualViewAgainst. Shared; do not mutate.
func (sn *Snapshot) DualViewSVGAgainst(old *Snapshot) []byte {
	return sn.Memo(dualSVGKey(old.Version), func() any {
		dv := sn.DualViewAgainst(old)
		return []byte(plot.RenderSVG(dv.After, plot.SVGOptions{
			Title:   dualViewTitle,
			Markers: dv.MarkersForSVG(),
		}))
	}).([]byte)
}

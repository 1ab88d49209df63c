// Package dynamic maintains Triangle K-Core numbers incrementally as edges
// are inserted into and deleted from a graph (the paper's Algorithm 2,
// detailed in its Appendix as Algorithms 5–7).
//
// The engine follows the paper's update discipline exactly: an edge change
// is decomposed into the set of triangles it creates or destroys, and those
// triangles are processed one at a time. For a single triangle change,
// Rule 0 of the paper guarantees that only edges whose κ equals μ — the
// minimum κ among the triangle's three edges — can change, and only by 1.
// Each per-triangle step therefore:
//
//   - insertion: collects the κ=μ edges triangle-connected to the new
//     triangle (the paper's PotentialList), computes each one's effective
//     support toward level μ+1, evicts candidates that fall short
//     (cascading), and promotes the survivors to μ+1;
//   - deletion: rechecks the κ=μ edges of the lost triangle and demotes
//     those whose level-μ support no longer holds, cascading the recheck
//     to κ=μ neighbors through shared triangles.
//
// This is the traversal formulation of the paper's "simulate Algorithm 1
// locally" procedure; it produces identical κ values (property-tested
// against full recomputation) without maintaining the sorted edge list and
// fractional order timestamps of Algorithms 5–7. See DESIGN.md §3.2.
//
// All engine state lives on a graph.Dense substrate: κ, traversal marks
// and the κ-histogram are flat slices indexed by dense edge id, the
// mid-update "off" triangle set is a generation-stamped vertex array, and
// traversal scratch is engine-owned and reused across updates. Every
// mutation runs as a batch (ApplyBatchContext) of edge operations, and
// each operation lists an edge's triangles at most once: a per-op memo
// keeps the (w, e1, e2) triples of every edge the operation's Rule 0
// searches enumerate, indexed by a small generation-stamped table rather
// than per-edge arrays, reset when the next operation opens and capped
// in size. See DESIGN.md §6.
package dynamic

import (
	"cmp"
	"slices"

	"trikcore/internal/core"
	"trikcore/internal/graph"
)

// Engine owns a graph and keeps κ(e) correct for every edge across
// arbitrary interleaved insertions and deletions. It is not safe for
// concurrent use.
type Engine struct {
	d *graph.Dense
	// kappa[eid] is κ of live edge eid and -1 in every free edge slot:
	// a deletion's last transition drives κ to -1 before the slot is
	// freed, and ensureEdgeCap fills new slots with -1. So an edge the
	// epoch path pre-inserts reads as absent until its region activates
	// it (parallel.go).
	kappa []int32
	// hist[k] counts live edges with κ=k; maxK is the largest k with
	// hist[k] > 0. Both are maintained through every transition, making
	// MaxKappa and KappaHistogram O(1)/O(maxκ) instead of O(E) scans.
	hist []int
	maxK int32

	// ser is the engine's serial apply context: the traversal scratch,
	// off-set machinery and κ access funnel every single-threaded update
	// runs against. Worker contexts for the parallel batch path are
	// created per epoch in parallel.go and share nothing with it.
	ser applyCtx

	// par is the reusable workspace of ApplyBatchParallel (region
	// partitioning, worker contexts, merge marks); empty until the first
	// parallel epoch.
	par parScratch

	// onKappaChange, when set, observes every κ transition of a dense edge
	// id: promotions and demotions (old≥0, new≥0), new edges (old=-1) and
	// removed edges (new=-1; fired while the edge is still live so
	// observers can read its endpoints). TrackedEngine uses it to maintain
	// explicit core membership.
	onKappaChange func(eid int32, old, new int32)
	// onUpdate, when set, runs at the end of every batch, after the last
	// transition and before the invariant check. TrackedEngine repairs
	// the membership that onKappaChange marked dirty there.
	onUpdate func()

	// changes logs every transition of the current batch in firing
	// order, keyed by external edge: within one serial batch an insertion
	// can reuse the dense slot a deletion just freed, so dense ids cannot
	// key it. It is reset at the start of every batch, so it never grows
	// past one batch's transitions (see BatchChanges).
	changes []KappaChange

	// view and viewKappa are the last FreezeView result, which the next
	// one is built from.
	view      *graph.Static
	viewKappa []int32

	// version counts effective graph changes: it moves exactly when a
	// public mutation (or batch of them) actually changed the vertex or
	// edge set, and never on a no-op. Snapshot publishers key immutable
	// views and derived-artifact caches off it.
	version uint64

	stats Stats

	// mt, when non-nil (see Instrument), records stage durations, Stats
	// deltas and structural gauges. Hooks live only at batch boundaries
	// so the uninstrumented mutation path is untouched.
	mt *engineMetrics
}

// scratch is the engine-owned traversal workspace, reused across updates.
// Arrays indexed by edge id are sized to the dense edge capacity; st and
// inQueue are reset to zero between steps (via the touched list and queue
// draining respectively), while es and evictedAt hold garbage outside the
// step that wrote them and are only read under a nonzero st mark.
type scratch struct {
	st        []int8  // insertSearch state per edge id (0 = unseen)
	es        []int32 // insertSearch effective support
	evictedAt []int32 // insertSearch eviction stamps
	inQueue   []bool  // deletion recheck queue membership
	touched   []int32 // edge ids with nonzero st, for O(step) reset
	stack     []int32 // insertSearch work stack
	queue     []int32 // deletion recheck queue
	ops       []EdgeOp
}

// Stats aggregates work counters across all updates, exposing the locality
// the incremental algorithm achieves (the quantity Table III measures as
// time).
type Stats struct {
	// Insertions and Deletions count edge-level updates applied.
	Insertions, Deletions int
	// TrianglesProcessed counts per-triangle update steps.
	TrianglesProcessed int
	// EdgesVisited counts edges touched by candidate collection,
	// support recomputation and cascades.
	EdgesVisited int
	// Promotions and Demotions count κ changes (±1 each).
	Promotions, Demotions int
	// TriangleListings counts the row merges κ maintenance ran to list an
	// edge's triangles: one per distinct edge an op enumerates, its own
	// included (the per-op memo serves repeat visits), plus re-listings
	// after the memo's cap flushed it.
	TriangleListings int
}

// NewEngine builds an engine over a private dense copy of g, initializing
// κ with the static decomposition (Algorithm 1). The caller's graph is not
// retained.
func NewEngine(g *graph.Graph) *Engine {
	return NewEngineFromDecomposition(core.Decompose(g))
}

// ensureEdgeCap grows all edge-indexed state to the dense edge capacity;
// new κ slots hold -1, as every free slot does.
func (en *Engine) ensureEdgeCap() {
	c := en.d.EdgeCap()
	for len(en.kappa) < c {
		en.kappa = append(en.kappa, -1)
	}
	en.ser.growEdges(c)
}

// ensureVertexCap grows vertex-indexed state to the dense vertex capacity.
func (en *Engine) ensureVertexCap() {
	en.ser.growVertices(en.d.VertexCap())
}

// setKappa writes κ(eid) = new and records the transition from old. With
// transition it is the funnel every κ write outside engine construction
// goes through; trikcheck's kappa-funnel rule rejects direct writes to
// kappa, hist or maxK anywhere else.
func (en *Engine) setKappa(eid, old, new int32) {
	en.kappa[eid] = new
	en.transition(eid, old, new)
}

// transition records a κ change of edge eid (old or new may be -1 for
// edge creation/removal), maintaining the histogram, maxK, the batch's
// change log, the substrate's mark for the next FreezeView and the
// change observer. It is the single funnel every κ movement goes
// through, and every transition fires while its edge is live, so the
// edge's endpoints are always readable here.
func (en *Engine) transition(eid, old, new int32) {
	en.changes = append(en.changes, KappaChange{E: en.d.EdgeAt(eid), From: old, To: new})
	en.d.MarkEdge(eid)
	if old >= 0 {
		en.hist[old]--
	}
	if new >= 0 {
		for int32(len(en.hist)) <= new { //trikcheck:checked hist has maxK+1 ≤ int32 buckets
			en.hist = append(en.hist, 0)
		}
		en.hist[new]++
		if new > en.maxK {
			en.maxK = new
		}
	}
	for en.maxK > 0 && en.hist[en.maxK] == 0 {
		en.maxK--
	}
	if en.onKappaChange != nil {
		en.onKappaChange(eid, old, new)
	}
}

// KappaChange is one κ transition of edge E: From and To are its κ
// before and after, with -1 meaning the edge is absent (From = -1 for an
// inserted edge, To = -1 for a deleted one).
type KappaChange struct {
	E        graph.Edge
	From, To int32
}

// BatchChanges returns the raw transition log of the most recent batch,
// in firing order; one edge may appear several times, each entry's From
// equal to the previous entry's To. NetChanges folds it into the batch's
// net effect. The slice aliases engine storage that the next batch
// overwrites; copy it to keep it.
func (en *Engine) BatchChanges() []KappaChange { return en.changes }

// NetChanges folds a transition log into one entry per edge, the first
// From and the last To, drops edges whose κ ended where it started, and
// sorts the result by edge. For BatchChanges this is exactly the κ diff,
// keyed by external edge, between the engine's state before and after
// the batch. raw is not modified.
func NetChanges(raw []KappaChange) []KappaChange {
	out := slices.Clone(raw)
	slices.SortStableFunc(out, func(a, b KappaChange) int {
		if c := cmp.Compare(a.E.U, b.E.U); c != 0 {
			return c
		}
		return cmp.Compare(a.E.V, b.E.V)
	})
	w := 0
	for i := 0; i < len(out); {
		j := i
		for j+1 < len(out) && out[j+1].E == out[i].E {
			j++
		}
		if out[i].From != out[j].To {
			out[w] = KappaChange{E: out[i].E, From: out[i].From, To: out[j].To}
			w++
		}
		i = j + 1
	}
	return out[:w]
}

// Graph materializes the engine's current graph as a standalone snapshot;
// mutating it does not affect the engine. For membership and size queries
// prefer HasEdge/NumEdges/NumVertices, which read the live substrate; for
// serving read traffic prefer FreezeView, which shares the packed rows'
// layout and carries κ along.
func (en *Engine) Graph() *graph.Graph { return en.d.Materialize() }

// Version returns the engine's monotone change counter. It advances once
// per batch that effectively changed the graph (a single InsertEdge or
// DeleteEdge is a batch of one) and once per AddVertex/RemoveVertex that
// changed the vertex set, so RemoveVertex of a vertex with edges moves it
// twice: once for the deletion batch, once for the vertex. No-op
// mutations (re-inserting a present edge, deleting an absent one, an
// empty or self-canceling batch) leave it untouched. Two equal versions
// therefore always name the same graph and κ assignment.
func (en *Engine) Version() uint64 { return en.version }

// bumpVersion records one effective mutation.
func (en *Engine) bumpVersion() { en.version++ }

// FreezeView freezes the engine's current graph into an immutable Static
// CSR view plus the matching κ-by-static-edge-id array, with no
// intermediate Graph and no re-decomposition. Dense.Freeze builds the
// view from the previous one, re-freezing only what changed; κ is a
// fresh copy of the previous view's κ patched at the ids whose edge or
// κ changed (transition marks every κ change), or projected whole when
// the view was built from scratch. With nothing changed since the last
// call it returns the same view and κ. The result shares nothing
// mutable with the engine; readers may use it concurrently with further
// engine mutation.
func (en *Engine) FreezeView() (*graph.Static, []int32) {
	s, ids := en.d.Freeze()
	if s == en.view {
		return s, en.viewKappa
	}
	var kappa []int32
	if ids.All {
		kappa = make([]int32, s.NumEdges())
		for i, deid := range ids.EdgeOf {
			kappa[i] = en.kappa[deid]
		}
	} else {
		// Appending the kept prefix allocates without zeroing it first.
		m := s.NumEdges()
		kappa = append([]int32(nil), en.viewKappa[:min(m, len(en.viewKappa))]...)
		kappa = append(kappa, make([]int32, m-len(kappa))...)
		for _, i := range ids.Changed {
			kappa[i] = en.kappa[ids.EdgeOf[i]]
		}
	}
	en.view, en.viewKappa = s, kappa
	en.debugAssertView()
	return s, kappa
}

// HasEdge reports whether the edge {u, v} is present.
func (en *Engine) HasEdge(u, v graph.Vertex) bool { return en.d.HasEdgeV(u, v) }

// HasVertex reports whether v is present.
func (en *Engine) HasVertex(v graph.Vertex) bool { return en.d.HasVertex(v) }

// NumEdges returns the number of live edges.
func (en *Engine) NumEdges() int { return en.d.NumEdges() }

// NumVertices returns the number of live vertices.
func (en *Engine) NumVertices() int { return en.d.NumVertices() }

// Stats returns cumulative work counters.
func (en *Engine) Stats() Stats { return en.stats }

// Kappa returns κ(e) and whether e is an edge of the current graph.
func (en *Engine) Kappa(e graph.Edge) (int32, bool) {
	eid := en.d.EdgeIDV(e.U, e.V)
	if eid < 0 {
		return 0, false
	}
	return en.kappa[eid], true
}

// EdgeKappas returns a copy of the current κ assignment.
func (en *Engine) EdgeKappas() map[graph.Edge]int {
	out := make(map[graph.Edge]int, en.d.NumEdges())
	en.d.ForEachEdgeID(func(eid int32) bool {
		out[en.d.EdgeAt(eid)] = int(en.kappa[eid])
		return true
	})
	return out
}

// MaxKappa returns the largest κ value in the current graph, maintained
// incrementally — O(1).
func (en *Engine) MaxKappa() int32 { return en.maxK }

// AddVertex inserts an isolated vertex.
func (en *Engine) AddVertex(v graph.Vertex) bool {
	_, added := en.d.Intern(v)
	en.ensureVertexCap()
	if added {
		en.bumpVersion()
	}
	en.debugAssert()
	return added
}

// RemoveVertex deletes v and all incident edges, maintaining κ through
// one deletion batch of those edges. It reports whether v was present.
func (en *Engine) RemoveVertex(v graph.Vertex) bool {
	dv, ok := en.d.DenseOf(v)
	if !ok {
		return false
	}
	var ops []EdgeOp
	en.d.ForEachNeighborD(dv, func(w, _ int32) bool {
		ops = append(ops, EdgeOp{U: v, V: en.d.OrigOf(w), Del: true})
		return true
	})
	en.ApplyBatch(ops)
	ok = en.d.RemoveVertexV(v)
	if ok {
		en.bumpVersion()
	}
	en.debugAssert()
	return ok
}

// InsertEdge adds the edge {u, v} as a batch of one, creating endpoints
// as needed, and updates κ for every affected edge. It reports whether
// the edge was new.
func (en *Engine) InsertEdge(u, v graph.Vertex) bool {
	added, _ := en.ApplyBatch([]EdgeOp{{U: u, V: v}})
	return added == 1
}

// DeleteEdge removes the edge {u, v} as a batch of one and updates κ for
// every affected edge. Endpoints are kept. It reports whether the edge
// existed.
func (en *Engine) DeleteEdge(u, v graph.Vertex) bool {
	_, removed := en.ApplyBatch([]EdgeOp{{U: u, V: v, Del: true}})
	return removed == 1
}

// insertEdgeCanon adds one edge of a canonical batch on the serial
// context, reporting whether it was new.
func (en *Engine) insertEdgeCanon(u, v graph.Vertex) bool {
	eid, added := en.d.AddEdgeV(u, v)
	if !added {
		return false
	}
	en.ensureEdgeCap()
	en.ensureVertexCap()
	en.ser.processEdgeInsert(eid)
	return true
}

// deleteEdgeCanon removes one edge of a canonical batch on the serial
// context, reporting whether it existed.
func (en *Engine) deleteEdgeCanon(u, v graph.Vertex) bool {
	eid := en.d.EdgeIDV(u, v)
	if eid < 0 {
		return false
	}
	en.ser.processEdgeDelete(eid)
	en.d.RemoveEdgeByID(eid)
	return true
}

// forEachActiveTriangleOn iterates the active triangles containing edge
// eid, passing the third dense vertex and the other two dense edge ids.
// Query paths between updates use it. No op is open then, so every
// combinatorial triangle is active and the rows are merged directly: the
// serial context's memo describes its last op's structure, which a later
// deletion or slot reuse may have changed.
func (en *Engine) forEachActiveTriangleOn(eid int32, fn func(w, e1, e2 int32) bool) {
	u, v := en.d.EdgeEndpoints(eid)
	en.d.ForEachTriangleEdgeD(u, v, fn)
}

// ApplyDiff applies a snapshot diff: removed edges, removed vertices,
// added vertices, then added edges, maintaining κ throughout. The edge
// portions are one batch each.
func (en *Engine) ApplyDiff(df graph.Diff) {
	ops := make([]EdgeOp, 0, len(df.RemovedEdges))
	for _, e := range df.RemovedEdges {
		ops = append(ops, EdgeOp{U: e.U, V: e.V, Del: true})
	}
	en.ApplyBatch(ops)
	for _, v := range df.RemovedVertices {
		en.RemoveVertex(v)
	}
	for _, v := range df.AddedVertices {
		en.AddVertex(v)
	}
	ops = ops[:0]
	for _, e := range df.AddedEdges {
		ops = append(ops, EdgeOp{U: e.U, V: e.V})
	}
	en.ApplyBatch(ops)
}

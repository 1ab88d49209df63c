package dynamic

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"trikcore/internal/graph"
	"trikcore/internal/obs/trace"
)

// EdgeOp is one edge-level operation of a batched update: insert {U, V}
// (Del false) or delete it (Del true). Endpoint order does not matter.
type EdgeOp struct {
	U, V graph.Vertex
	Del  bool
}

// canonicalizeOps normalizes a batch into net-effect form, reusing buf's
// capacity: endpoints are swapped into canonical order, ops are
// stable-sorted by edge (so each group preserves batch order and its last
// element is the op that wins), and each edge keeps only that winning op.
// It panics on self-loops. The serial and parallel paths both start here,
// which is what makes their results comparable op-for-op.
func canonicalizeOps(ops []EdgeOp, buf []EdgeOp) []EdgeOp {
	if cap(buf) < len(ops) {
		buf = make([]EdgeOp, 0, len(ops))
	}
	buf = buf[:0]
	for _, op := range ops {
		if op.U == op.V {
			panic(fmt.Sprintf("dynamic: self-loop on vertex %d", op.U))
		}
		if op.U > op.V {
			op.U, op.V = op.V, op.U
		}
		buf = append(buf, op)
	}
	slices.SortStableFunc(buf, func(a, b EdgeOp) int {
		if c := cmp.Compare(a.U, b.U); c != 0 {
			return c
		}
		return cmp.Compare(a.V, b.V)
	})
	w := 0
	for i := 0; i < len(buf); i++ {
		if i+1 < len(buf) && buf[i+1].U == buf[i].U && buf[i+1].V == buf[i].V {
			continue
		}
		buf[w] = buf[i]
		w++
	}
	return buf[:w]
}

// ApplyBatchContext applies a batch of edge operations as one update and
// returns how many edges were actually inserted and deleted. It is the
// engine's only write path: ApplyBatch, ApplyBatchParallel, the per-edge
// InsertEdge/DeleteEdge (batches of one) and RemoveVertex (its incident
// edges as one deletion batch) all run through it.
//
// The batch is applied by net effect: operations are canonicalized and
// sorted by edge, conflicting operations on the same edge collapse to the
// last one in batch order, and the surviving deletions run before the
// surviving insertions. Because toggling an edge is idempotent against its
// final state, the resulting graph — and therefore every maintained κ —
// is identical to applying the operations one at a time in order; only
// the work of intermediate toggles is skipped. Counts reflect the edges
// whose presence actually changed, so a batch that inserts and then
// deletes an absent edge reports neither. Batching also amortizes the
// engine's traversal and triangle scratch across the whole batch.
//
// workers > 1 runs κ maintenance as one epoch fanned out over that many
// goroutines (parallel.go); the result is identical at any worker count.
// Either path leaves the deleted edges' ids as holes, which the batch
// ends by compacting (graph.Dense.CompactEdges, moveEdge), so dense ids
// are stable inside a batch and packed between batches: the next view's
// edge ids. A flight-recorder trace carried by ctx receives one span per
// stage, timed by the same call that feeds the stage histograms. The
// version advances once iff the batch changed the graph, and
// BatchChanges logs exactly this batch's transitions. It panics on
// self-loop operations, with the engine untouched.
func (en *Engine) ApplyBatchContext(ctx context.Context, ops []EdgeOp, workers int) (added, removed int) {
	en.changes = en.changes[:0]
	if len(ops) == 0 {
		return 0, 0
	}
	tr := trace.FromContext(ctx)
	var before Stats
	if en.mt != nil {
		before = en.stats
	}
	var kept int
	if workers > 1 {
		kept, added, removed = en.applyParallel(tr, ops, workers)
	} else {
		kept, added, removed = en.applySerial(tr, ops)
	}
	en.d.CompactEdges(en.moveEdge)
	// One version step per effective batch: a batch whose ops all cancel
	// or no-op leaves the version (and thus published snapshots) alone.
	if added+removed > 0 {
		en.bumpVersion()
	}
	if en.mt != nil {
		en.mt.insertsApplied.Add(uint64(added))
		en.mt.deletesApplied.Add(uint64(removed))
		en.mt.opsDeduped.Add(uint64(len(ops) - kept))
		en.mt.recordDelta(en, before)
		en.mt.substrateBytes.Set(en.d.SizeBytes())
	}
	if en.onUpdate != nil {
		en.onUpdate()
	}
	en.debugAssert()
	return added, removed
}

// ApplyBatch is ApplyBatchContext on the serial path, untraced.
func (en *Engine) ApplyBatch(ops []EdgeOp) (added, removed int) {
	return en.ApplyBatchContext(context.Background(), ops, 1)
}

// ApplyBatchParallel is ApplyBatchContext with workers goroutines,
// untraced.
func (en *Engine) ApplyBatchParallel(ops []EdgeOp, workers int) (added, removed int) {
	return en.ApplyBatchContext(context.Background(), ops, workers)
}

// applySerial runs a batch on the engine's serial context, returning how
// many ops survived canonicalization and the applied counts.
func (en *Engine) applySerial(tr *trace.Trace, ops []EdgeOp) (kept, added, removed int) {
	defer en.startStage(tr, stApplyBatch).End()
	sp := en.startStage(tr, stCanonicalize)
	buf := canonicalizeOps(ops, en.ser.sc.ops)
	en.ser.sc.ops = buf
	sp.End()

	sp = en.startStage(tr, stDelete)
	for _, op := range buf {
		if op.Del && en.deleteEdgeCanon(op.U, op.V) {
			removed++
		}
	}
	sp.End()
	sp = en.startStage(tr, stInsert)
	for _, op := range buf {
		if !op.Del && en.insertEdgeCanon(op.U, op.V) {
			added++
		}
	}
	sp.End()
	return len(buf), added, removed
}

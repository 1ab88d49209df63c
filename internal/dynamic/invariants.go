package dynamic

import (
	"fmt"

	"trikcore/internal/graph"
)

// CheckInvariants verifies the engine's internal consistency without
// re-running the decomposition: the substrate's structural invariants,
// the sizing of every edge-indexed state array, the agreement of the
// maintained histogram and max κ with the live κ values, κ = -1 in every
// free edge slot, and the cleanliness of the traversal scratch between
// public updates. It returns the first violation found, or nil.
//
// It is O(V + E log deg) — cheap enough that, under the trikdebug build
// tag, every public mutating operation asserts it (see debugAssert),
// turning the whole test suite into a consistency oracle. For the far
// more expensive κ-correctness check against a from-scratch
// recomputation, see VerifyConsistency.
func (en *Engine) CheckInvariants() error {
	if err := en.d.CheckInvariants(); err != nil {
		return fmt.Errorf("dynamic: substrate: %w", err)
	}
	c := en.d.EdgeCap()
	if len(en.kappa) < c {
		return fmt.Errorf("dynamic: kappa tracks %d edge slots, substrate has %d", len(en.kappa), c)
	}
	ser := &en.ser
	for _, s := range [][]int32{ser.sc.es, ser.sc.evictedAt} {
		if len(s) < c {
			return fmt.Errorf("dynamic: scratch tracks %d edge slots, substrate has %d", len(s), c)
		}
	}
	if len(ser.sc.st) < c || len(ser.sc.inQueue) < c {
		return fmt.Errorf("dynamic: scratch marks track %d/%d edge slots, substrate has %d",
			len(ser.sc.st), len(ser.sc.inQueue), c)
	}
	if len(ser.offStamp) < en.d.VertexCap() {
		return fmt.Errorf("dynamic: off stamps track %d vertex slots, substrate has %d",
			len(ser.offStamp), en.d.VertexCap())
	}

	// Between public updates no op is open on any context — no off epoch,
	// and so no triangle memo a traversal could read — and no traversal
	// marks linger; a leak here means a later update would silently skip
	// edges or read a stale listing.
	for i, c := range append([]*applyCtx{ser}, en.par.ctxs...) {
		if c.offU != -1 || c.offV != -1 {
			return fmt.Errorf("dynamic: op still open on context %d, dense edge {%d, %d}", i, c.offU, c.offV)
		}
	}
	if len(ser.sc.touched) != 0 {
		return fmt.Errorf("dynamic: %d traversal marks not reset", len(ser.sc.touched))
	}
	for eid, st := range ser.sc.st {
		if st != 0 {
			return fmt.Errorf("dynamic: edge %d left with traversal state %d", eid, st)
		}
	}
	for eid, q := range ser.sc.inQueue {
		if q {
			return fmt.Errorf("dynamic: edge %d left marked in-queue", eid)
		}
	}
	// Every free edge slot holds κ = -1, which the epoch path reads as
	// "absent" once it pre-inserts an edge into the slot.
	for eid, k := range en.kappa[:c] {
		if k != -1 && !en.d.EdgeLive(int32(eid)) { //trikcheck:checked eid < EdgeCap, which the substrate bounds to int32
			return fmt.Errorf("dynamic: free edge slot %d holds κ = %d, want -1", eid, k)
		}
	}

	// Histogram and max κ must agree exactly with the live κ values.
	counts := make([]int, len(en.hist))
	live := 0
	var bad error
	en.d.ForEachEdgeID(func(eid int32) bool {
		k := en.kappa[eid]
		if k < 0 || int(k) >= len(en.hist) {
			bad = fmt.Errorf("dynamic: κ(%v) = %d outside histogram of length %d",
				en.d.EdgeAt(eid), k, len(en.hist))
			return false
		}
		counts[k]++
		live++
		return true
	})
	if bad != nil {
		return bad
	}
	if live != en.d.NumEdges() {
		return fmt.Errorf("dynamic: iterated %d live edges, substrate reports %d", live, en.d.NumEdges())
	}
	total := 0
	for k, n := range counts {
		if en.hist[k] != n {
			return fmt.Errorf("dynamic: hist[%d] = %d, live edges say %d", k, en.hist[k], n)
		}
		total += n
	}
	if total != en.d.NumEdges() {
		return fmt.Errorf("dynamic: histogram sums to %d, %d edges live", total, en.d.NumEdges())
	}
	if int(en.maxK) >= len(en.hist) {
		return fmt.Errorf("dynamic: maxκ = %d outside histogram of length %d", en.maxK, len(en.hist))
	}
	if en.maxK > 0 && en.hist[en.maxK] == 0 {
		return fmt.Errorf("dynamic: hist[maxκ=%d] is empty", en.maxK)
	}
	for k := int(en.maxK) + 1; k < len(en.hist); k++ {
		if en.hist[k] != 0 {
			return fmt.Errorf("dynamic: hist[%d] = %d above maxκ = %d", k, en.hist[k], en.maxK)
		}
	}
	return nil
}

// debugAssert panics on the first invariant violation when the trikdebug
// build tag is set, and compiles to nothing otherwise. Every public
// mutating operation calls it on exit.
func (en *Engine) debugAssert() {
	if !debugChecks {
		return
	}
	if err := en.CheckInvariants(); err != nil {
		panic("trikdebug: " + err.Error())
	}
}

// checkView verifies a FreezeView result against the engine's current
// state: the view has the engine's edges and every κ entry equals the
// engine's κ of that edge, looked up by external edge so it holds
// however the view numbers its edges. The view's structure is checked
// by graph.DiffViews.
func (en *Engine) checkView(s *graph.Static, kappa []int32) error {
	if s.NumEdges() != en.d.NumEdges() || len(kappa) != s.NumEdges() {
		return fmt.Errorf("dynamic: view has %d edges and %d κ entries, engine has %d edges",
			s.NumEdges(), len(kappa), en.d.NumEdges())
	}
	for i, k := range kappa {
		e := s.EdgeAt(int32(i)) //trikcheck:checked i < m, which the view bounds to int32
		if want, ok := en.Kappa(e); !ok || want != k {
			return fmt.Errorf("dynamic: view κ(%v) = %d, engine has %d (present %v)", e, k, want, ok)
		}
	}
	return nil
}

// debugAssertView panics on the first checkView failure of the last
// FreezeView when the trikdebug build tag is set, and compiles to nothing
// otherwise. Dense.Freeze checks the view's structure itself.
func (en *Engine) debugAssertView() {
	if !debugChecks {
		return
	}
	if err := en.checkView(en.view, en.viewKappa); err != nil {
		panic("trikdebug: " + err.Error())
	}
}

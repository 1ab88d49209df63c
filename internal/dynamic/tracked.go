package dynamic

import (
	"fmt"
	"slices"
	"sort"

	"trikcore/internal/graph"
)

// TrackedEngine is an Engine that additionally maintains the paper's
// explicit per-edge core membership bookkeeping (the AddToCore /
// DelFromCore state of Algorithms 1, 2, 5 and 7): for every edge e, the
// set of triangles forming a witness of e's maximum Triangle K-Core.
//
// The membership contract is the paper's Theorem 1 consistency:
//
//	I1: |core(e)| = κ(e);
//	I2: every t ∈ core(e) is a triangle of the current graph, and both
//	    of t's other edges carry κ ≥ κ(e).
//
// With the sets on hand, CoreTriangles is O(1) per query and MaxCore
// neighborhoods can be assembled without re-running Algorithm 1 — the
// capability the paper's bookkeeping exists to provide in the dynamic
// setting (statically, Rule 1 reconstructs the same sets from the
// processing order; see core.Decomposition.CoreTriangles).
//
// Membership lives in packed form on the dense substrate: cores[eid] is
// the sorted list of dense third vertices whose triangles witness edge
// eid. No reverse index is needed — a triangle can only be witnessed by
// its own three edges, so the edges whose witness references a triangle
// through e are found by iterating e's triangles and binary-searching the
// two co-edges' third lists. Membership repair after an update is local:
// only edges whose κ changed, edges that lost a triangle, and edges whose
// stored witness referenced a demoted edge need their sets rebuilt.
type TrackedEngine struct {
	*Engine
	// cores[eid] holds the witness of live edge eid as sorted dense third
	// vertices; free edge slots keep empty lists.
	cores [][]int32
	// dirty lists edges needing repair during one batch, with dirtyMark
	// deduplicating by edge id.
	dirty     []int32
	dirtyMark []bool
}

// NewTrackedEngine builds a tracked engine over a copy of g. Initial
// membership comes from Rule 1 applied to the maintained κ values: the
// first κ(e) triangles of e (by third vertex) whose other edges carry
// κ ≥ κ(e) are a valid witness by Theorem 1, so no second decomposition
// is needed.
func NewTrackedEngine(g *graph.Graph) *TrackedEngine {
	te := &TrackedEngine{Engine: NewEngine(g)}
	te.Engine.onKappaChange = te.observe
	te.Engine.onUpdate = te.repair
	te.ensureCap()
	te.d.ForEachEdgeID(func(eid int32) bool {
		te.cores[eid] = te.selectWitnessInto(nil, eid, te.kappa[eid])
		return true
	})
	return te
}

// ensureCap grows membership state to the dense edge capacity.
func (te *TrackedEngine) ensureCap() {
	c := te.d.EdgeCap()
	te.cores = grow(te.cores, c)
	te.dirtyMark = grow(te.dirtyMark, c)
}

func (te *TrackedEngine) markDirty(eid int32) {
	if !te.dirtyMark[eid] {
		te.dirtyMark[eid] = true
		te.dirty = append(te.dirty, eid)
	}
}

// observe collects κ transitions; repairs run once at the end of the
// batch (the engine applies one batch as many per-triangle steps, and
// membership is only required to be consistent between batches).
// Removal transitions arrive while the edge and its triangles are still
// present, which is what lets dependents be found here rather than by a
// pre-mutation hook.
func (te *TrackedEngine) observe(eid, old, new int32) {
	te.ensureCap()
	te.markDirty(eid)
	if new < old {
		// Demotion or removal: any edge whose witness uses a triangle
		// through this edge may now violate Theorem 1.
		te.markDependents(eid)
	}
}

// markDependents marks edges whose stored witness contains a triangle
// through edge eid. A triangle {u, v, w} can only be witnessed by its own
// three edges, so for each triangle on eid = {u, v} it suffices to probe
// the co-edges {u, w} (third vertex v) and {v, w} (third vertex u).
func (te *TrackedEngine) markDependents(eid int32) {
	u, v := te.d.EdgeEndpoints(eid)
	te.d.ForEachTriangleEdgeD(u, v, func(w, e1, e2 int32) bool {
		if containsSorted(te.cores[e1], v) {
			te.markDirty(e1)
		}
		if containsSorted(te.cores[e2], u) {
			te.markDirty(e2)
		}
		return true
	})
}

func containsSorted(s []int32, x int32) bool {
	_, ok := slices.BinarySearch(s, x)
	return ok
}

// repair rebuilds the witness lists of all dirty edges. It is the
// engine's end-of-batch hook, so every mutation — through the
// TrackedEngine or its embedded Engine — leaves membership consistent.
func (te *TrackedEngine) repair() {
	for _, eid := range te.dirty {
		te.dirtyMark[eid] = false
		if !te.d.EdgeLive(eid) {
			te.cores[eid] = te.cores[eid][:0]
			continue
		}
		te.cores[eid] = te.selectWitnessInto(te.cores[eid][:0], eid, te.kappa[eid])
	}
	te.dirty = te.dirty[:0]
	te.debugAssert()
}

// debugAssert shadows Engine.debugAssert with the tracked variant, so the
// membership contract is asserted too when trikdebug is on.
func (te *TrackedEngine) debugAssert() {
	if !debugChecks {
		return
	}
	if err := te.CheckInvariants(); err != nil {
		panic("trikdebug: " + err.Error())
	}
}

// selectWitnessInto appends to buf the dense third vertices of the first
// κ(e) triangles on edge eid (ascending third vertex) whose other edges
// carry κ ≥ κ(e). Such triangles always exist when κ is correct (the edge
// belongs to a Triangle κ(e)-Core, whose member edges all carry κ ≥ κ(e)).
func (te *TrackedEngine) selectWitnessInto(buf []int32, eid int32, k int32) []int32 {
	if k == 0 {
		return buf
	}
	u, v := te.d.EdgeEndpoints(eid)
	te.d.ForEachTriangleEdgeD(u, v, func(w, e1, e2 int32) bool {
		if te.kappa[e1] >= k && te.kappa[e2] >= k {
			buf = append(buf, w)
		}
		return int32(len(buf)) < k //trikcheck:checked buf holds at most k witnesses
	})
	if int32(len(buf)) < k { //trikcheck:checked buf holds at most k witnesses
		panic(fmt.Sprintf("dynamic: edge %v has only %d eligible witness triangles for κ=%d",
			te.d.EdgeAt(eid), len(buf), k))
	}
	return buf
}

// CoreTriangles returns the stored witness of e's maximum Triangle
// K-Core: κ(e) triangles satisfying Theorem 1. The boolean is false if e
// is not an edge of the current graph.
func (te *TrackedEngine) CoreTriangles(e graph.Edge) ([]graph.Triangle, bool) {
	eid := te.d.EdgeIDV(e.U, e.V)
	if eid < 0 {
		return nil, false
	}
	thirds := te.cores[eid]
	out := make([]graph.Triangle, 0, len(thirds))
	for _, w := range thirds {
		out = append(out, graph.NewTriangle(e.U, e.V, te.d.OrigOf(w)))
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.A != b.A {
			return a.A < b.A
		}
		if a.B != b.B {
			return a.B < b.B
		}
		return a.C < b.C
	})
	return out, true
}

// CheckInvariants verifies the underlying engine's invariants plus the
// membership contract (I1 and I2 above) for every edge, returning the
// first violation found. Tests call this after randomized churn; under
// the trikdebug build tag every public mutating operation asserts it.
func (te *TrackedEngine) CheckInvariants() error {
	if err := te.Engine.CheckInvariants(); err != nil {
		return err
	}
	if len(te.cores) < te.d.EdgeCap() {
		return fmt.Errorf("membership tracks %d edge slots, substrate has %d", len(te.cores), te.d.EdgeCap())
	}
	for i := range te.cores {
		eid := int32(i) //trikcheck:checked i indexes cores, sized to the int32-bounded edge capacity
		thirds := te.cores[i]
		if !te.d.EdgeLive(eid) {
			if len(thirds) != 0 {
				return fmt.Errorf("free edge slot %d holds %d witness entries", eid, len(thirds))
			}
			continue
		}
		e := te.d.EdgeAt(eid)
		k := te.kappa[eid]
		if int32(len(thirds)) != k { //trikcheck:checked witness lists hold κ ≤ int32 entries
			return fmt.Errorf("edge %v: |core| = %d, κ = %d", e, len(thirds), k)
		}
		u, v := te.d.EdgeEndpoints(eid)
		for j, w := range thirds {
			if j > 0 && thirds[j-1] >= w {
				return fmt.Errorf("edge %v: witness thirds not strictly sorted", e)
			}
			e1 := te.d.EdgeIDD(u, w)
			e2 := te.d.EdgeIDD(v, w)
			if e1 < 0 || e2 < 0 {
				return fmt.Errorf("edge %v: witness third %d uses an absent edge", e, te.d.OrigOf(w))
			}
			if te.kappa[e1] < k || te.kappa[e2] < k {
				return fmt.Errorf("edge %v: witness third %d violates Theorem 1 (κ %d/%d < %d)",
					e, te.d.OrigOf(w), te.kappa[e1], te.kappa[e2], k)
			}
		}
	}
	return nil
}

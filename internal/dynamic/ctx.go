package dynamic

import "fmt"

// applyCtx is the execution context of κ maintenance: the traversal
// scratch, the per-update "off" triangle set, the per-op triangle memo,
// and the κ access funnel the per-triangle update steps (update.go) run
// against. Two kinds of context exist:
//
//   - the engine's own serial context (Engine.ser, staged == false):
//     κ reads hit Engine.kappa directly and κ writes go straight through
//     the Engine.setKappa funnel — the classic single-threaded path used
//     by InsertEdge/DeleteEdge/ApplyBatch;
//   - worker contexts (staged == true, see parallel.go): the substrate
//     and Engine.kappa are frozen and read-only, κ writes land in a
//     worker-local staging overlay (sKappa/sMark), and every edge whose κ
//     or liveness the traversal depends on is in the context's read set.
//     Staged transitions only reach the engine later, through the funnel,
//     at the epoch-barrier merge.
//
// A staged context records reads per listing, not per visit. Its premise
// is that no edge's liveness changes during an op: an insertion stages
// its own edge live before it lists anything, and a deletion stages its
// edge dead after its last visit. So each op records its own edge when
// it starts (beginOff), and each listing drops the triangles with an absent co-edge
// and records both co-edges of every triangle it merges, once (memo.go).
// Every κ a traversal reads is of one of those edges, so kappaOf records
// nothing. The staged branches in kappaOf, setK and listing are the
// entire cost the serial path pays for sharing one traversal
// implementation with the workers.
type applyCtx struct {
	en    *Engine
	stats *Stats
	sc    scratch

	// The "off" set: triangles that exist combinatorially but are excluded
	// from the active set during a multi-triangle update — not yet
	// activated (mid-insertion) or already deactivated (mid-deletion).
	// Every off triangle contains the edge being updated, so the set is
	// just that edge's dense endpoints plus a generation stamp per third
	// vertex: triangle {offU, offV, w} is off iff offStamp[w] == offGen.
	// Bumping offGen retires a whole update's stamps in O(1).
	offU, offV int32
	offStamp   []uint32
	offGen     uint32

	// memo lists each edge's triangles once per op (memo.go); beginOff
	// resets it with the off set.
	memo triMemo

	// Staging overlay (worker contexts only). sKappa[e] is the staged κ of
	// edge e when sMark[e] == gen (-1 = staged deletion); rMark stamps the
	// read set. gen is bumped once per region, retiring the previous
	// region's overlay in O(1). reads and writes list the stamped edge ids
	// in first-touch order; they alias the region's record (parallel.go).
	staged bool
	sKappa []int32
	sMark  []uint32
	rMark  []uint32
	gen    uint32
	reads  []int32
	writes []int32
}

// init binds the context to its engine and closes the off epoch.
func (c *applyCtx) init(en *Engine) {
	c.en = en
	c.offU, c.offV = -1, -1
}

// growEdges sizes the edge-indexed context state to n slots. The staging
// arrays grow only on staged contexts; generation stamps make zero the
// safe initial value everywhere.
func (c *applyCtx) growEdges(n int) {
	c.sc.st = grow(c.sc.st, n)
	c.sc.es = grow(c.sc.es, n)
	c.sc.evictedAt = grow(c.sc.evictedAt, n)
	c.sc.inQueue = grow(c.sc.inQueue, n)
	if c.staged {
		c.sKappa = grow(c.sKappa, n)
		c.sMark = grow(c.sMark, n)
		c.rMark = grow(c.rMark, n)
	}
}

// growVertices sizes the vertex-indexed off stamps to n slots.
func (c *applyCtx) growVertices(n int) {
	c.offStamp = grow(c.offStamp, n)
}

// grow returns s extended to length n with zeros, in one append (the
// compiler clears the new tail in place, allocating no temporary); s is
// returned as is when it is already that long.
func grow[T any](s []T, n int) []T {
	if len(s) >= n {
		return s
	}
	return append(s, make([]T, n-len(s))...)
}

// kappaOf reads the effective κ of edge e: the staging overlay when this
// context has staged e, the engine's maintained value otherwise. It
// records nothing; trikdebug builds check that a staged read's edge is
// already in the read set.
func (c *applyCtx) kappaOf(e int32) int32 {
	if c.staged {
		if debugChecks && c.rMark[e] != c.gen {
			panic(fmt.Sprintf("trikdebug: staged κ read of edge %d, which is not in the region's read set", e))
		}
		if c.sMark[e] == c.gen {
			return c.sKappa[e]
		}
	}
	return c.en.kappa[e]
}

// setK funnels one κ transition of edge e from old to new: directly
// through Engine.setKappa on the serial context, into the staging overlay
// on worker contexts (old is implied by the overlay/base state there and
// reconstructed at merge).
func (c *applyCtx) setK(e, old, new int32) {
	if c.staged {
		c.stageKappa(e, new)
		return
	}
	c.en.setKappa(e, old, new)
}

// stageKappa writes the staged κ of edge e. It is the staging funnel: the
// only writer of sKappa/sMark, recording e in the write set on first
// touch so the merge and the conflict validator see exactly the edges
// this context moved. A context writes only edges it has read, so the
// write set is a subset of the read set.
func (c *applyCtx) stageKappa(e, v int32) {
	if c.sMark[e] != c.gen {
		c.sMark[e] = c.gen
		c.writes = append(c.writes, e)
	}
	c.sKappa[e] = v
}

// readEdge records e in the context's read set (staged contexts only).
func (c *applyCtx) readEdge(e int32) {
	if c.rMark[e] != c.gen {
		c.rMark[e] = c.gen
		c.reads = append(c.reads, e)
	}
}

// live reports whether edge e is logically present from this staged
// context's point of view: staged edges by their overlay (a staged -1 is
// a completed deletion), unstaged ones by the engine's κ, which is -1 for
// a pending insertion of the batch (structurally present, absent until
// its region activates it) and for an edge another region already
// deleted and merged (visible to the conflict-suffix context only). It
// records nothing.
func (c *applyCtx) live(e int32) bool {
	if c.sMark[e] == c.gen {
		return c.sKappa[e] >= 0
	}
	return c.en.kappa[e] >= 0
}

// beginOff opens the op on edge eid: its off-set epoch, an empty triangle
// memo and, on a staged context, eid in the read set.
func (c *applyCtx) beginOff(eid int32) {
	c.offGen++
	if c.offGen == 0 {
		// Generation counter wrapped: stale stamps could collide, so wipe
		// them all once per 2^32 updates.
		for i := range c.offStamp {
			c.offStamp[i] = 0
		}
		c.offGen = 1
	}
	c.offU, c.offV = c.en.d.EdgeEndpoints(eid)
	c.memo.reset()
	if c.staged {
		c.readEdge(eid)
	}
}

// endOff closes the op, clearing the stamps of the listed (w, e1, e2)
// triples. The generation bump in beginOff already retires them; clearing
// keeps stamps from surviving a full generation wrap.
func (c *applyCtx) endOff(tris []int32) {
	for i := 0; i < len(tris); i += 3 {
		c.offStamp[tris[i]] = 0
	}
	c.offU, c.offV = -1, -1
}

// triOff reports whether the triangle over dense vertices {p, q, w} is in
// the off set: it contains the updating edge {offU, offV} and its third
// vertex carries the current generation stamp.
func (c *applyCtx) triOff(p, q, w int32) bool {
	var third int32
	switch {
	case (p == c.offU && q == c.offV) || (p == c.offV && q == c.offU):
		third = w
	case (p == c.offU && w == c.offV) || (p == c.offV && w == c.offU):
		third = q
	case (q == c.offU && w == c.offV) || (q == c.offV && w == c.offU):
		third = p
	default:
		return false
	}
	return c.offStamp[third] == c.offGen
}

// forEachActiveTriangleOn iterates the active triangles containing edge
// eid during an op, passing the third dense vertex and the other two
// dense edge ids. It reads eid's listing from the op's memo, which on a
// staged context holds only triangles whose co-edges are live, and skips
// the triangles in the off set.
func (c *applyCtx) forEachActiveTriangleOn(eid int32, fn func(w, e1, e2 int32) bool) {
	u, v := c.en.d.EdgeEndpoints(eid)
	tris := c.listing(eid)
	// An off triangle contains the updating edge, so a triangle on eid can
	// be off only if eid shares an endpoint with it.
	mayBeOff := u == c.offU || u == c.offV || v == c.offU || v == c.offV
	for i := 0; i < len(tris); i += 3 {
		w, e1, e2 := tris[i], tris[i+1], tris[i+2]
		if mayBeOff && c.triOff(u, v, w) {
			continue
		}
		if !fn(w, e1, e2) {
			return
		}
	}
}

// processEdgeInsert performs the κ maintenance of inserting edge eid,
// which must already be structurally present with all its triangles
// off. The new edge forms one triangle per common neighbor; they are
// activated one at a time (Algorithm 2 step 1 / Algorithm 5 outer loop):
// all start excluded, then each is switched on and processed. A staged
// context stages the edge live before listing it, so its listing keeps
// the triangles whose co-edges are live.
func (c *applyCtx) processEdgeInsert(eid int32) {
	c.setK(eid, -1, 0)
	c.stats.Insertions++
	c.beginOff(eid)
	tris := c.listing(eid)
	for i := 0; i < len(tris); i += 3 {
		c.offStamp[tris[i]] = c.offGen
	}
	for i := 0; i < len(tris); i += 3 {
		c.offStamp[tris[i]] = 0
		c.processTriangleInsert(eid, tris[i+1], tris[i+2])
	}
	c.endOff(tris)
}

// processEdgeDelete performs the κ maintenance of deleting edge eid: each
// of its active triangles is deactivated and processed in turn, after
// which its κ must have fallen to zero and the deletion transition
// (new = -1) goes through the funnel. The structural removal is the
// caller's job — immediately after on the serial path, in the batch
// post-pass on the parallel path.
func (c *applyCtx) processEdgeDelete(eid int32) {
	c.stats.Deletions++
	c.beginOff(eid)
	tris := c.listing(eid)
	for i := 0; i < len(tris); i += 3 {
		c.offStamp[tris[i]] = c.offGen
		c.processTriangleDelete(eid, tris[i+1], tris[i+2])
	}
	if k := c.kappaOf(eid); k != 0 {
		// Every triangle on the edge has been deactivated, so a correct
		// update must have driven its κ to zero.
		panic(fmt.Sprintf("dynamic: κ(%v)=%d after deactivating all its triangles", c.en.d.EdgeAt(eid), k))
	}
	// The deletion transition fires while the edge is still structurally
	// live so observers can resolve its endpoints.
	c.setK(eid, 0, -1)
	c.endOff(tris)
}

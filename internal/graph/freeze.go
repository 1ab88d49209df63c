package graph

import (
	"fmt"
	"math"
	"slices"
)

// freezeLog is what a Dense records between freezes once it has been
// frozen or has adopted a view (NewDenseFrozen): the last view with the
// id maps that tie it to the dense slots, and the rows and edge slots
// marked since.
type freezeLog struct {
	view *Static
	// staticOf[e] is the view's id for dense edge slot e, -1 if none;
	// edgeOf[i] is the dense slot of the view's edge i.
	staticOf, edgeOf []int32
	// orig is the backing array of view.OrigID, with room to append: the
	// positions of later views only grow at its end.
	orig []Vertex
	// deg[u] is the degree of dense vertex u in view: a compact copy the
	// rank comparisons read instead of the rows' slice headers.
	deg []int32
	// rows and edges list the marked dense vertex rows and edge slots;
	// rowMark and edgeMark deduplicate them.
	rows, edges       []int32
	rowMark, edgeMark []bool
	// removed records a vertex removal since the view; compacted, that
	// the view compacted free vertex slots. Either makes the next Freeze
	// start from scratch.
	removed, compacted bool
	// Per-freeze scratch, kept to avoid reallocation.
	holes, added, moved, placed, changed, verts []int32
	blockMark, pageMark                         []bool
	blockList, pageList                         []int32
}

// markRow records that row u changed. A nil log records nothing.
func (fz *freezeLog) markRow(u int32) {
	if fz == nil {
		return
	}
	for int(u) >= len(fz.rowMark) {
		fz.rowMark = append(fz.rowMark, false)
	}
	if !fz.rowMark[u] {
		fz.rowMark[u] = true
		fz.rows = append(fz.rows, u)
	}
}

// markEdge records that edge slot e, or the payload a caller keeps for
// it, changed. A nil log records nothing.
func (fz *freezeLog) markEdge(e int32) {
	if fz == nil {
		return
	}
	for int(e) >= len(fz.edgeMark) {
		fz.edgeMark = append(fz.edgeMark, false)
	}
	if !fz.edgeMark[e] {
		fz.edgeMark[e] = true
		fz.edges = append(fz.edges, e)
	}
}

// MarkEdge records that per-edge state the caller projects onto frozen
// views (κ) changed for live edge eid, so the next Freeze lists the
// edge's view id in FreezeIDs.Changed. It records nothing while d has
// no freeze log: before the first Freeze of a Dense not built by
// NewDenseFrozen.
func (d *Dense) MarkEdge(eid int32) { d.fz.markEdge(eid) }

// FreezeIDs relates a view's edge ids to the Dense it was frozen from
// and to the previous view.
type FreezeIDs struct {
	// EdgeOf[i] is the dense id of the view's edge i. It aliases storage
	// the Dense owns and is valid until the Dense next changes.
	EdgeOf []int32
	// Changed lists the view ids whose edge is new, moved, or marked by
	// MarkEdge since the previous Freeze; every other id names the same
	// edge with the same marked state as in the previous view. It is
	// meaningless when All is set, and aliases Dense storage like EdgeOf.
	Changed []int32
	// All reports that the view was built from scratch, so no id relates
	// to the previous view.
	All bool
}

// Freeze returns an immutable Static view of d's current graph, built
// from the previous view and sharing every chunk of it that did not
// change (see Static). A Dense built by NewDenseFrozen counts its
// adopted view as the previous one, so its first Freeze returns that
// view if nothing changed. The first Freeze of any other Dense, and any
// Freeze while a removed vertex's slot is free or after a vertex was
// removed, builds the view from scratch with the same builder and every
// row dirty.
//
// Positions are dense vertex ids while no vertex slot is free, so they
// only grow at the end; otherwise live slots are compacted in ascending
// order. A view keeps its predecessor's edge ids for unchanged edges:
// an edge inserted since takes the id of one deleted since, or the next
// id past the end, and when deletions outnumber insertions the highest
// ids move into the remaining holes, so ids stay 0..M-1 at O(1) each.
// A view from scratch numbers edges in ascending slot order.
//
// A view shares storage only with earlier views, never with d, so later
// mutation of d does not affect it. Freezing twice with nothing changed
// in between returns the same view.
func (d *Dense) Freeze() (*Static, FreezeIDs) {
	fz := d.fz
	if fz != nil && !fz.removed && len(fz.rows) == 0 && len(fz.edges) == 0 {
		return fz.view, FreezeIDs{EdgeOf: fz.edgeOf}
	}
	all := fz == nil || fz.removed || fz.compacted || len(d.freeV) > 0
	if all {
		fz = d.newFreezeLog()
	}
	s, changed := d.freezeWith(fz)
	fz.compacted = len(d.freeV) > 0
	d.fz = fz
	if debugChecks {
		if err := DiffViews(s, d.FreezeFresh()); err != nil {
			panic("trikdebug: incremental freeze: " + err.Error())
		}
	}
	return s, FreezeIDs{EdgeOf: fz.edgeOf, Changed: changed, All: all}
}

// FreezeFresh builds the view Freeze builds from scratch — positions as
// Freeze assigns them, edge ids in ascending slot order — without
// touching what Freeze records: the reference an incremental Freeze is
// checked against (DiffViews).
func (d *Dense) FreezeFresh() *Static {
	s, _ := d.freezeWith(d.newFreezeLog())
	return s
}

// NewDenseFrozen is NewDenseFromStatic for a Dense that continues from
// s: s is its last frozen view, as if Freeze had just built it, so the
// first Freeze returns s itself and later ones share s's unchanged
// chunks. NewDenseFromStatic keeps slots = positions and edge slots =
// s's edge ids, so s is exactly the view a from-scratch Freeze would
// build; the log's id maps start as the identity and its degrees as the
// rows'. The Dense's views share s's storage, so s must stay valid (a
// mapped view open) for as long as any of them is in use. s is not
// written.
func NewDenseFrozen(s *Static) *Dense {
	d := NewDenseFromStatic(s)
	n, m := len(d.orig), len(d.edgeU)
	fz := &freezeLog{
		view:     s,
		staticOf: make([]int32, m),
		edgeOf:   make([]int32, m),
		orig:     s.OrigID[:n:n],
		deg:      make([]int32, n),
		rowMark:  make([]bool, n),
		edgeMark: make([]bool, m),
	}
	for e := range fz.staticOf {
		fz.staticOf[e] = int32(e) //trikcheck:checked e < m, which the view bounds to int32
		fz.edgeOf[e] = int32(e)   //trikcheck:checked e < m, which the view bounds to int32
	}
	for u, row := range d.rows {
		fz.deg[u] = int32(len(row)) //trikcheck:checked degrees ≤ 2m, which the view bounds to int32
	}
	d.fz = fz
	if debugChecks {
		if err := DiffViews(s, d.FreezeFresh()); err != nil {
			panic("trikdebug: adopted view: " + err.Error())
		}
	}
	return d
}

// newFreezeLog returns a log whose previous view is empty and in which
// every live row and edge slot is marked, so freezeWith builds the whole
// view.
func (d *Dense) newFreezeLog() *freezeLog {
	fz := &freezeLog{
		view:     &Static{},
		staticOf: make([]int32, len(d.edgeU)),
		rows:     make([]int32, 0, d.nv),
		edges:    make([]int32, 0, d.ne),
		rowMark:  make([]bool, len(d.orig)),
		edgeMark: make([]bool, len(d.edgeU)),
	}
	for u, live := range d.vlive {
		if live {
			fz.markRow(int32(u)) //trikcheck:checked u indexes vlive, bounded to int32 by Intern
		}
	}
	for e, u := range d.edgeU {
		fz.staticOf[e] = -1
		if u >= 0 {
			fz.markEdge(int32(e)) //trikcheck:checked e indexes edgeU, bounded to int32 by AddEdgeV
		}
	}
	return fz
}

// freezeWith is the one view builder. It assigns ids to the marked edge
// slots, re-freezes the row blocks that hold a marked row, a moved edge
// or a flipped out-row, copies on write the endpoint pages of the ids it
// (re)assigned, appends new vertices, and clears the marks. It returns
// the view and the ids whose edge or marked state changed.
func (d *Dense) freezeWith(fz *freezeLog) (*Static, []int32) {
	// Same overflow stance as FreezeStatic: the 2M adjacency offsets are
	// int32, so refuse rather than truncate. Vertex ids are already bounded
	// by Intern's capacity panic; the annotations below cite these guards.
	if d.ne > math.MaxInt32/2 {
		panic("graph: Freeze edge count exceeds int32 capacity")
	}
	prev := fz.view
	nPrev, n := prev.NumVertices(), d.nv

	// Positions: dense ids while no slot is free, else live slots
	// compacted in ascending order (only ever on a build from scratch,
	// nPrev = 0). The relabeling is monotone, so row order, u < v and
	// the rank tie-break survive it.
	var posOf, denseAt []int32
	if len(d.freeV) > 0 {
		posOf = make([]int32, len(d.orig))
		denseAt = make([]int32, 0, n)
		for u, live := range d.vlive {
			posOf[u] = -1
			if live {
				posOf[u] = int32(len(denseAt))      //trikcheck:checked len < n, bounded to int32 by Intern
				denseAt = append(denseAt, int32(u)) //trikcheck:checked u indexes vlive, bounded to int32 by Intern
			}
		}
	}
	pos := func(u int32) int32 {
		if posOf == nil {
			return u
		}
		return posOf[u]
	}

	m, changed := d.assignEdgeIDs(fz, pos)

	// Blocks to re-freeze: marked rows, both endpoints of moved edges,
	// and out-rows flipped by a neighbor's degree change. Only the
	// marked rows are scanned for flips: an unmarked u kept its degree
	// and neighbors, so only the rank of a marked neighbor w can move.
	// fz.deg moves to the new degrees on the way.
	markBlock := func(p int32) {
		b := p >> blockShift
		for int(b) >= len(fz.blockMark) {
			fz.blockMark = append(fz.blockMark, false)
		}
		if !fz.blockMark[b] {
			fz.blockMark[b] = true
			fz.blockList = append(fz.blockList, b)
		}
	}
	for len(fz.deg) < len(d.orig) {
		fz.deg = append(fz.deg, 0)
	}
	for _, w := range fz.rows {
		if !d.vlive[w] {
			continue
		}
		markBlock(pos(w))
		oldW, newW := fz.deg[w], int32(len(d.rows[w])) //trikcheck:checked degrees ≤ 2m, guarded above
		fz.deg[w] = newW
		if int(pos(w)) >= nPrev || oldW == newW {
			continue
		}
		for _, packed := range d.rows[w] {
			u := int32(packed >> 32)
			if int(u) < len(fz.rowMark) && fz.rowMark[u] {
				continue
			}
			if du := fz.deg[u]; rankLess(u, w, du, oldW) != rankLess(u, w, du, newW) {
				markBlock(pos(u))
			}
		}
	}
	for _, e := range fz.moved {
		markBlock(pos(d.edgeU[e]))
		markBlock(pos(d.edgeV[e]))
	}
	nb := (n + blockMask) >> blockShift
	rows, outs := make([]rowChunk, nb), make([]rowChunk, nb)
	copy(rows, prev.rows)
	copy(outs, prev.outs)
	// A bulk batch dirties most blocks; build those in parallel.
	parallelBlocks(len(fz.blockList), func(lo, hi int) {
		var scratch []int32
		for _, b := range fz.blockList[lo:hi] {
			rows[b], outs[b], scratch = d.buildBlock(int(b), n, fz.deg, fz.staticOf, posOf, denseAt, scratch)
		}
	})
	for _, b := range fz.blockList {
		fz.blockMark[b] = false
	}
	fz.blockList = fz.blockList[:0]

	// Endpoint pages: copy on write the pages of (re)assigned ids. Pages
	// are always allocated whole, so a later view can grow into them.
	np := (m + pageMask) >> pageShift
	edgeU, edgeV := make([][]int32, np), make([][]int32, np)
	copy(edgeU, prev.edgeU)
	copy(edgeV, prev.edgeV)
	for len(fz.pageMark) < np {
		fz.pageMark = append(fz.pageMark, false)
	}
	for _, i := range fz.placed {
		p := i >> pageShift
		if !fz.pageMark[p] {
			fz.pageMark[p] = true
			fz.pageList = append(fz.pageList, p)
			u, v := make([]int32, pageEdges), make([]int32, pageEdges)
			copy(u, edgeU[p])
			copy(v, edgeV[p])
			edgeU[p], edgeV[p] = u, v
		}
		e := fz.edgeOf[i]
		edgeU[p][i&pageMask], edgeV[p][i&pageMask] = pos(d.edgeU[e]), pos(d.edgeV[e])
	}
	for _, p := range fz.pageList {
		fz.pageMark[p] = false
	}
	fz.pageList = fz.pageList[:0]

	// Vertices: positions past nPrev are new. OrigID grows in place at
	// the end of its backing array, which no earlier view can see past
	// its own length; the id index is re-merged. A view without an index
	// (a flat-built one) has an ascending OrigID, which is its own index.
	byID, byIDPos := prev.byID, prev.byIDPos
	if n > nPrev {
		if cap(fz.orig) < n {
			fz.orig = append(make([]Vertex, 0, n+n/4), fz.orig...)
		}
		fz.orig = fz.orig[:n]
		added := fz.verts[:0]
		for p := nPrev; p < n; p++ {
			u := int32(p) //trikcheck:checked p < n, bounded to int32 by Intern
			if denseAt != nil {
				u = denseAt[p]
			}
			fz.orig[p] = d.orig[u]
			added = append(added, int32(p)) //trikcheck:checked p < n, bounded to int32 by Intern
		}
		if byID == nil {
			byID = prev.OrigID
		}
		byID, byIDPos = mergeIDIndex(byID, byIDPos, fz.orig, added)
		fz.verts = added[:0]
	}
	s := &Static{OrigID: fz.orig[:n:n], byID: byID, byIDPos: byIDPos, m: m, rows: rows, outs: outs, edgeU: edgeU, edgeV: edgeV}

	for _, u := range fz.rows {
		fz.rowMark[u] = false
	}
	for _, e := range fz.edges {
		fz.edgeMark[e] = false
	}
	fz.rows, fz.edges = fz.rows[:0], fz.edges[:0]
	fz.view = s
	return s, changed
}

// assignEdgeIDs updates the id maps for the marked edge slots (see
// Freeze for the refill rule), leaving in fz.placed the ids whose
// endpoints must be written and in fz.moved the dense slots of moved
// edges. It returns the new edge count and the ids whose edge or marked
// state changed, all below it.
func (d *Dense) assignEdgeIDs(fz *freezeLog, pos func(int32) int32) (int, []int32) {
	prev := fz.view
	for len(fz.staticOf) < len(d.edgeU) {
		fz.staticOf = append(fz.staticOf, -1)
	}
	holes, added, changed := fz.holes[:0], fz.added[:0], fz.changed[:0]
	for _, e := range fz.edges {
		id, live := fz.staticOf[e], d.edgeU[e] >= 0
		if id >= 0 && live {
			if u, v := prev.Endpoints(id); u == pos(d.edgeU[e]) && v == pos(d.edgeV[e]) {
				changed = append(changed, id) // same edge, marked state only
				continue
			}
		}
		if id >= 0 {
			holes = append(holes, id)
			fz.staticOf[e] = -1
		}
		if live {
			added = append(added, e)
		}
	}
	slices.Sort(holes)
	slices.Sort(added)
	m := prev.NumEdges()
	fz.edgeOf = slices.Grow(fz.edgeOf[:m], len(added)-min(len(added), len(holes)))
	placed := slices.Grow(fz.placed[:0], max(len(added), len(holes)))
	moved := fz.moved[:0]
	for k, e := range added {
		id := int32(m) //trikcheck:checked m ≤ live edges, guarded by freezeWith
		if k < len(holes) {
			id = holes[k]
		} else {
			fz.edgeOf = append(fz.edgeOf[:m], e)
			m++
		}
		fz.staticOf[e], fz.edgeOf[id] = id, e
		placed = append(placed, id)
	}
	// Holes left over: fill each from the top, or drop it when it is the
	// top id itself.
	for rest := holes[min(len(added), len(holes)):]; len(rest) > 0; m-- {
		top := int32(m - 1) //trikcheck:checked m ≤ live edges, guarded by freezeWith
		if rest[len(rest)-1] == top {
			rest = rest[:len(rest)-1]
			continue
		}
		h, e := rest[0], fz.edgeOf[top]
		rest = rest[1:]
		fz.staticOf[e], fz.edgeOf[h] = h, e
		placed = append(placed, h)
		moved = append(moved, e)
	}
	fz.edgeOf = fz.edgeOf[:m]
	changed = append(changed, placed...)
	changed = slices.DeleteFunc(changed, func(id int32) bool { return int(id) >= m })
	fz.holes, fz.added, fz.placed, fz.moved, fz.changed = holes[:0], added[:0], placed, moved, changed
	return m, changed
}

// buildBlock builds the row and out-row chunks of block b of an n-vertex
// view from d's current rows, their degrees deg and edge ids staticOf;
// posOf and denseAt are the position maps (nil for dense ids). Out-rows
// go through scratch, as (neighbor, edge id) pairs, so both chunks are
// allocated exactly; the scratch is returned for reuse. The rank
// compares dense ids, which order like positions.
func (d *Dense) buildBlock(b, n int, deg, staticOf, posOf, denseAt, scratch []int32) (rows, outs rowChunk, _ []int32) {
	lo, hi := b<<blockShift, min((b+1)<<blockShift, n)
	k, total := hi-lo, 0
	dense := d.rows
	for p := lo; p < hi; p++ {
		if denseAt != nil {
			total += len(dense[denseAt[p]])
		} else {
			total += len(dense[p])
		}
	}
	data := make([]int32, k+1+2*total)
	rows = rowChunk{ptr: data[:k+1], nbr: data[k+1 : k+1+total], eid: data[k+1+total:]}
	var outEnd [blockRows + 1]int32
	out, at := scratch[:0], 0
	for p := lo; p < hi; p++ {
		u := int32(p) //trikcheck:checked p < n, bounded to int32 by Intern
		if denseAt != nil {
			u = denseAt[p]
		}
		row, du := dense[u], deg[u]
		for _, packed := range row {
			w, e := int32(packed>>32), staticOf[int32(uint32(packed))]
			up := rankLess(u, w, du, deg[w])
			if posOf != nil {
				w = posOf[w]
			}
			rows.nbr[at], rows.eid[at] = w, e
			at++
			if up {
				out = append(out, w, e)
			}
		}
		rows.ptr[p-lo+1] = int32(at)         //trikcheck:checked row lengths sum to 2m, guarded by freezeWith
		outEnd[p-lo+1] = int32(len(out) / 2) //trikcheck:checked out-rows sum to ≤ m, guarded by freezeWith
	}
	o := len(out) / 2
	data = make([]int32, k+1+2*o)
	outs = rowChunk{ptr: data[:k+1], nbr: data[k+1 : k+1+o], eid: data[k+1+o:]}
	copy(outs.ptr, outEnd[:k+1])
	for j := 0; j < o; j++ {
		outs.nbr[j], outs.eid[j] = out[2*j], out[2*j+1]
	}
	return rows, outs, out[:0]
}

// mergeIDIndex returns the id index (ids ascending, with positions) of
// a view whose OrigID is orig: the previous index ids/idPos merged with
// the positions in added, which it sorts by id. A nil idPos places
// ids[i] at position i: the index of an ascending OrigID.
func mergeIDIndex(ids []Vertex, idPos []int32, orig []Vertex, added []int32) ([]Vertex, []int32) {
	slices.SortFunc(added, func(a, b int32) int { return int(orig[a]) - int(orig[b]) })
	n := len(ids) + len(added)
	outIDs, outPos := make([]Vertex, 0, n), make([]int32, 0, n)
	keep := func(i int) {
		p := int32(i) //trikcheck:checked i < len(ids), a view's vertex count
		if idPos != nil {
			p = idPos[i]
		}
		outIDs, outPos = append(outIDs, ids[i]), append(outPos, p)
	}
	i := 0
	for _, p := range added {
		for ; i < len(ids) && ids[i] < orig[p]; i++ {
			keep(i)
		}
		outIDs, outPos = append(outIDs, orig[p]), append(outPos, p)
	}
	for ; i < len(ids); i++ {
		keep(i)
	}
	return outIDs, outPos
}

// DiffViews reports the first difference between two views of the same
// graph, compared by external ids so their edge numbering may differ:
// the vertex at each position, each row's neighbors and edges, each
// out-row, the edge table against the rows, and PosOf. It returns nil
// when they agree.
func DiffViews(got, want *Static) error {
	n, m := got.NumVertices(), got.NumEdges()
	if n != want.NumVertices() || m != want.NumEdges() {
		return fmt.Errorf("view has %d vertices / %d edges, want %d / %d", n, m, want.NumVertices(), want.NumEdges())
	}
	for p := int32(0); int(p) < n; p++ {
		if got.OrigID[p] != want.OrigID[p] {
			return fmt.Errorf("position %d holds vertex %d, want %d", p, got.OrigID[p], want.OrigID[p])
		}
		if q, ok := got.PosOf(got.OrigID[p]); !ok || q != p {
			return fmt.Errorf("PosOf(%d) = %d, %v; want %d", got.OrigID[p], q, ok, p)
		}
		for _, side := range [2]struct {
			name string
			row  func(*Static, int32) ([]int32, []int32)
		}{{"row", (*Static).Row}, {"out-row", (*Static).outRow}} {
			gn, ge := side.row(got, p)
			wn, we := side.row(want, p)
			if !slices.Equal(gn, wn) {
				return fmt.Errorf("%s %d is %v, want %v", side.name, p, gn, wn)
			}
			for k := range ge {
				if got.EdgeAt(ge[k]) != want.EdgeAt(we[k]) {
					return fmt.Errorf("%s %d entry %d names edge %v, want %v", side.name, p, k, got.EdgeAt(ge[k]), want.EdgeAt(we[k]))
				}
			}
		}
	}
	for i := int32(0); int(i) < m; i++ {
		u, v := got.Endpoints(i)
		if u >= v || got.EdgeIndex(u, v) != i {
			return fmt.Errorf("edge %d has endpoints (%d, %d), which the rows do not give id %d", i, u, v, i)
		}
	}
	return nil
}

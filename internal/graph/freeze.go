package graph

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// freezeLog is what a Dense records between freezes once it has been
// frozen or has adopted a view (NewDenseFrozen): the last view, and the
// rows and edge ids marked since. A view numbers its edges by the dense
// edge ids, which Freeze requires packed (CompactEdges), so the log
// keeps no id map.
type freezeLog struct {
	view *Static
	// orig is the backing array of view.OrigID, with room to append: the
	// positions of later views only grow at its end.
	orig []Vertex
	// rows and edges list the marked dense vertex rows and edge ids;
	// rowMark and edgeMark deduplicate them.
	rows, edges       []int32
	rowMark, edgeMark []bool
	// removed records a vertex removal since the view; compacted, that
	// the view compacted free vertex slots. Either makes the next Freeze
	// start from scratch.
	removed, compacted bool
	// Per-freeze scratch, kept to avoid reallocation.
	changed, verts      []int32
	blockMark, pageMark []bool
	blockList, pageList []int32
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

// markEdge records that edge id e, or the payload a caller keeps for
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
// views (κ) changed for live edge eid, so the next Freeze lists eid in
// FreezeIDs.Changed. It records nothing while d has no freeze log:
// before the first Freeze of a Dense not built by NewDenseFrozen.
func (d *Dense) MarkEdge(eid int32) { d.fz.markEdge(eid) }

// FreezeIDs relates a view's edge ids to the previous view's. A view's
// edge i is the Dense's edge i.
type FreezeIDs struct {
	// Changed lists the ids whose edge is new, moved in by CompactEdges,
	// or marked by MarkEdge since the previous Freeze; every other id
	// names the same edge with the same marked state as in the previous
	// view. It is meaningless when All is set. It aliases storage the
	// Dense owns and is valid until the Dense next changes.
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
// order. Edge ids are the dense edge ids, which must be packed. Freeze
// panics on a Dense with holes rather than compact it, so a silent
// compaction can never desynchronise per-edge state a caller keeps:
// such a caller compacts with its own move callback first.
//
// A view shares storage only with earlier views, never with d, so later
// mutation of d does not affect it. Freezing twice with nothing changed
// in between returns the same view.
func (d *Dense) Freeze() (*Static, FreezeIDs) {
	fz := d.fz
	if fz != nil && !fz.removed && len(fz.rows) == 0 && len(fz.edges) == 0 {
		return fz.view, FreezeIDs{}
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
	return s, FreezeIDs{Changed: changed, All: all}
}

// FreezeFresh builds the view Freeze builds from scratch — positions as
// Freeze assigns them, edge ids the dense ones — without touching what
// Freeze records: the reference an incremental Freeze is checked
// against (DiffViews).
func (d *Dense) FreezeFresh() *Static {
	s, _ := d.freezeWith(d.newFreezeLog())
	return s
}

// NewDenseFrozen is NewDenseFromStatic for a Dense that continues from
// s: s is its last frozen view, as if Freeze had just built it, so the
// first Freeze returns s itself and later ones share s's unchanged
// chunks. NewDenseFromStatic keeps slots = positions and edge ids =
// s's edge ids, so s is exactly the view a from-scratch Freeze would
// build. The Dense's views share s's storage, so s must stay valid (a
// mapped view open) for as long as any of them is in use. s is not
// written.
func NewDenseFrozen(s *Static) *Dense {
	d := NewDenseFromStatic(s)
	n, m := len(d.orig), len(d.edgeU)
	d.fz = &freezeLog{
		view:     s,
		orig:     s.OrigID[:n:n],
		rowMark:  make([]bool, n),
		edgeMark: make([]bool, m),
	}
	if debugChecks {
		if err := DiffViews(s, d.FreezeFresh()); err != nil {
			panic("trikdebug: adopted view: " + err.Error())
		}
	}
	return d
}

// newFreezeLog returns a log whose previous view is empty and in which
// every live row and edge id is marked, so freezeWith builds the whole
// view.
func (d *Dense) newFreezeLog() *freezeLog {
	fz := &freezeLog{
		view:     &Static{},
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
	for e := range d.edgeU {
		fz.markEdge(int32(e)) //trikcheck:checked e indexes edgeU, bounded to int32 by AddEdgeV
	}
	return fz
}

// freezeWith is the one view builder. It re-freezes the row blocks that
// hold a marked row, copies on write the endpoint pages of the marked
// ids whose endpoints changed, appends new vertices, and clears the
// marks. It returns the view and the marked ids below its edge count.
// The view stores rows only: its degree-oriented half is derived from
// them on first use (Static.oriented).
func (d *Dense) freezeWith(fz *freezeLog) (*Static, []int32) {
	if len(d.holes) > 0 {
		panic("graph: Freeze of a Dense with edge holes; CompactEdges first")
	}
	// Same overflow stance as FreezeStatic: the 2M adjacency offsets are
	// int32, so refuse rather than truncate. Vertex ids are already bounded
	// by Intern's capacity panic; the annotations below cite these guards.
	if d.ne > math.MaxInt32/2 {
		panic("graph: Freeze edge count exceeds int32 capacity")
	}
	prev := fz.view
	nPrev, n, m := prev.NumVertices(), d.nv, d.ne

	// Positions: dense ids while no slot is free, else live slots
	// compacted in ascending order (only ever on a build from scratch,
	// nPrev = 0). The relabeling is monotone, so row order and u < v
	// survive it.
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

	// Blocks to re-freeze: those of marked live rows. A row whose entry
	// CompactEdges rewrote is marked too.
	for _, u := range fz.rows {
		if !d.vlive[u] {
			continue
		}
		b := pos(u) >> blockShift
		for int(b) >= len(fz.blockMark) {
			fz.blockMark = append(fz.blockMark, false)
		}
		if !fz.blockMark[b] {
			fz.blockMark[b] = true
			fz.blockList = append(fz.blockList, b)
		}
	}
	rows := make([]rowChunk, (n+blockMask)>>blockShift)
	copy(rows, prev.rows)
	// A bulk batch dirties most blocks; build those in parallel.
	parallelBlocks(len(fz.blockList), func(lo, hi int) {
		for _, b := range fz.blockList[lo:hi] {
			rows[b] = d.buildBlock(int(b), n, posOf, denseAt)
		}
	})
	for _, b := range fz.blockList {
		fz.blockMark[b] = false
	}
	fz.blockList = fz.blockList[:0]

	// Endpoint pages: copy on write the pages of the marked ids whose
	// endpoints changed, those past the previous view's end or naming
	// another edge there; a mark for κ alone copies nothing. Marked ids
	// past the end are holes CompactEdges dropped. Pages are always
	// allocated whole, so a later view can grow into them.
	np := (m + pageMask) >> pageShift
	edgeU, edgeV := make([][]int32, np), make([][]int32, np)
	copy(edgeU, prev.edgeU)
	copy(edgeV, prev.edgeV)
	for len(fz.pageMark) < np {
		fz.pageMark = append(fz.pageMark, false)
	}
	changed := fz.changed[:0]
	for _, i := range fz.edges {
		if int(i) >= m {
			continue
		}
		changed = append(changed, i)
		u, v := pos(d.edgeU[i]), pos(d.edgeV[i])
		if int(i) < prev.NumEdges() {
			if pu, pv := prev.Endpoints(i); pu == u && pv == v {
				continue
			}
		}
		p := i >> pageShift
		if !fz.pageMark[p] {
			fz.pageMark[p] = true
			fz.pageList = append(fz.pageList, p)
			cu, cv := make([]int32, pageEdges), make([]int32, pageEdges)
			copy(cu, edgeU[p])
			copy(cv, edgeV[p])
			edgeU[p], edgeV[p] = cu, cv
		}
		edgeU[p][i&pageMask], edgeV[p][i&pageMask] = u, v
	}
	fz.changed = changed
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
	s := &Static{
		OrigID: fz.orig[:n:n], byID: byID, byIDPos: byIDPos, m: m, rows: rows, edgeU: edgeU, edgeV: edgeV,
		oriented: sync.OnceValue(func() *rowChunk { return orientRows(rows, n, m) }),
	}

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

// buildBlock builds the row chunk of block b of an n-vertex view, in
// one allocation, from d's current rows; posOf and denseAt are the
// position maps (nil for dense ids).
func (d *Dense) buildBlock(b, n int, posOf, denseAt []int32) rowChunk {
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
	rows := rowChunk{ptr: data[:k+1], nbr: data[k+1 : k+1+total], eid: data[k+1+total:]}
	at := 0
	for p := lo; p < hi; p++ {
		u := int32(p) //trikcheck:checked p < n, bounded to int32 by Intern
		if denseAt != nil {
			u = denseAt[p]
		}
		for _, packed := range dense[u] {
			w, e := int32(packed>>32), int32(uint32(packed))
			if posOf != nil {
				w = posOf[w]
			}
			rows.nbr[at], rows.eid[at] = w, e
			at++
		}
		rows.ptr[p-lo+1] = int32(at) //trikcheck:checked row lengths sum to 2m, guarded by freezeWith
	}
	return rows
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
		}{{"row", (*Static).Row}, {"out-row", func(s *Static, u int32) ([]int32, []int32) { return s.oriented().row(u) }}} {
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

package graph

import (
	"fmt"
	"maps"
	"math"
	"slices"
)

// Dense is the mutable, index-oriented counterpart of Static: an
// undirected simple graph whose vertices are interned to dense int32 ids
// and whose edges carry dense int32 ids handed out by an allocator with a
// free list. It is the substrate the dynamic maintenance engine runs on —
// per-edge algorithm state (κ, traversal marks, witness sets) lives in
// flat slices indexed by edge id instead of maps keyed by Edge values —
// and the storage of Graph, which hides the ids.
//
// Adjacency is one packed row per vertex: sorted (neighbor << 32 | edge id)
// int64 entries, exactly the LiveAdj layout, but each row is an
// independently growable slice so insertion works too. Inserting into a
// row is a binary search plus a tail shift; Go's append doubles row
// capacity, so the shift amortizes and rows keep slack for future inserts.
// Common-neighbor queries merge two sorted rows (galloping over the larger
// row when badly skewed) and hand back edge ids with no lookup structure.
//
// Intern tables: Pos-style external↔dense vertex mapping is kept in both
// directions (a map one way, a slice the other); the Edge↔id mapping needs
// no table at all — EdgeIDD binary-searches the smaller endpoint row, and
// EdgeAt reads the endpoint arrays.
//
// Dense slots are recycled: removing an edge pushes its id on a free list
// and the next insertion pops it, so edge ids stay packed in [0, EdgeCap)
// and flat per-edge state never needs compaction. Vertex slots recycle the
// same way once a vertex is removed.
//
// Dense is not safe for concurrent mutation; concurrent reads are safe.
type Dense struct {
	pos   map[Vertex]int32 // external id → dense id (live vertices only)
	orig  []Vertex         // dense id → external id (stale on free slots)
	vlive []bool           // vertex slot liveness
	rows  [][]int64        // per-vertex sorted packed (nbr<<32 | eid)
	edgeU []int32          // dense endpoints of edge i, edgeU < edgeV; -1 = free slot
	edgeV []int32
	freeE []int32 // freed edge ids, reused LIFO
	freeV []int32 // freed vertex slots, reused LIFO
	nv    int     // live vertices
	ne    int     // live edges
	// rowCap is Σ cap(rows[u]), kept up to date wherever a row is
	// allocated or grows, so SizeBytes need not walk the rows.
	rowCap int64
	// fz records what changed since the last Freeze. It is nil until the
	// first Freeze, so a Dense that is never frozen records nothing;
	// NewDenseFrozen starts it from the adopted view instead, so such a
	// Dense records from construction on.
	fz *freezeLog
}

// NewDense returns an empty dense graph.
func NewDense() *Dense {
	return &Dense{pos: make(map[Vertex]int32)}
}

// NewDenseFromStatic builds a Dense holding the same graph as s, with
// identical dense vertex positions and edge ids — the bridge that lets a
// fresh static decomposition's flat κ array be adopted by a dynamic
// engine verbatim. The Static view is not retained.
func NewDenseFromStatic(s *Static) *Dense {
	m := s.NumEdges()
	edgeU, edgeV := make([]int32, m), make([]int32, m)
	for i := range edgeU {
		edgeU[i], edgeV[i] = s.Endpoints(int32(i)) //trikcheck:checked i < m, which the view bounds to int32
	}
	orig := slices.Clone(s.OrigID)
	return newDenseRows(orig, vertexIndex(orig), edgeU, edgeV, s.Row)
}

// vertexIndex maps each orig[u] to its slot u.
func vertexIndex(orig []Vertex) map[Vertex]int32 {
	pos := make(map[Vertex]int32, len(orig))
	for u, v := range orig {
		pos[v] = int32(u) //trikcheck:checked u < len(orig), which every caller bounds to int32
	}
	return pos
}

// newDenseRows builds a Dense whose slot u holds orig[u] with the sorted
// row row(u) and whose edge i joins slots edgeU[i] < edgeV[i], adopting
// orig, its vertexIndex pos, edgeU and edgeV. The rows share one backing
// array; a row that outgrows its segment moves out on reallocation.
func newDenseRows(orig []Vertex, pos map[Vertex]int32, edgeU, edgeV []int32, row func(u int32) (nbr, eid []int32)) *Dense {
	n, m := len(orig), len(edgeU)
	d := &Dense{
		pos:    pos,
		orig:   orig,
		vlive:  make([]bool, n),
		rows:   make([][]int64, n),
		edgeU:  edgeU,
		edgeV:  edgeV,
		nv:     n,
		ne:     m,
		rowCap: int64(2 * m),
	}
	backing := make([]int64, 2*m)
	for u := range orig {
		d.vlive[u] = true
		nbr, eid := row(int32(u)) //trikcheck:checked u < n, which every caller bounds to int32
		r := backing[:len(nbr):len(nbr)]
		backing = backing[len(nbr):]
		for k, w := range nbr {
			r[k] = packLive(w, eid[k])
		}
		d.rows[u] = r
	}
	return d
}

// clone returns a deep copy of d's graph with the same slots and edge
// ids, every row packed into one backing array, and no freeze log.
func (d *Dense) clone() Dense {
	c := Dense{
		pos:    maps.Clone(d.pos),
		orig:   slices.Clone(d.orig),
		vlive:  slices.Clone(d.vlive),
		rows:   make([][]int64, len(d.rows)),
		edgeU:  slices.Clone(d.edgeU),
		edgeV:  slices.Clone(d.edgeV),
		freeE:  slices.Clone(d.freeE),
		freeV:  slices.Clone(d.freeV),
		nv:     d.nv,
		ne:     d.ne,
		rowCap: int64(2 * d.ne),
	}
	backing := make([]int64, 2*d.ne)
	for u, row := range d.rows {
		c.rows[u] = backing[:len(row):len(row)]
		backing = backing[copy(backing, row):]
	}
	return c
}

// NumVertices returns the number of live vertices.
func (d *Dense) NumVertices() int { return d.nv }

// NumEdges returns the number of live edges.
func (d *Dense) NumEdges() int { return d.ne }

// VertexCap returns the number of dense vertex slots ever allocated;
// per-vertex flat state should be sized to it.
func (d *Dense) VertexCap() int { return len(d.orig) }

// SizeBytes estimates the heap footprint of the substrate: the packed
// adjacency rows (at capacity, since grown rows retain their backing),
// the flat edge/vertex arrays, free lists and intern table. It is O(1):
// the row capacities are a running total.
func (d *Dense) SizeBytes() int64 {
	return int64(len(d.orig))*8 + int64(len(d.vlive)) +
		int64(len(d.edgeU)+len(d.edgeV)+len(d.freeE)+len(d.freeV))*4 +
		int64(len(d.pos))*16 + int64(len(d.rows))*24 + d.rowCap*8
}

// EdgeCap returns the number of dense edge slots ever allocated;
// per-edge flat state should be sized to it.
func (d *Dense) EdgeCap() int { return len(d.edgeU) }

// DenseOf returns the dense id of a live external vertex.
func (d *Dense) DenseOf(v Vertex) (int32, bool) {
	p, ok := d.pos[v]
	return p, ok
}

// OrigOf returns the external id of dense vertex u.
func (d *Dense) OrigOf(u int32) Vertex { return d.orig[u] }

// HasVertex reports whether external vertex v is live.
func (d *Dense) HasVertex(v Vertex) bool {
	_, ok := d.pos[v]
	return ok
}

// Intern returns the dense id of external vertex v, allocating (or
// recycling) a slot if v is not present. The boolean reports whether the
// vertex was newly added.
func (d *Dense) Intern(v Vertex) (int32, bool) {
	p, added := d.intern(v)
	if added {
		d.debugAssert()
	}
	return p, added
}

// intern is Intern without the trikdebug assertion; Graph mutates
// through it and the other unexported bodies below.
func (d *Dense) intern(v Vertex) (int32, bool) {
	if p, ok := d.pos[v]; ok {
		return p, false
	}
	var p int32
	if n := len(d.freeV); n > 0 {
		p = d.freeV[n-1]
		d.freeV = d.freeV[:n-1]
		d.orig[p] = v
		d.vlive[p] = true
		d.rows[p] = d.rows[p][:0]
	} else {
		if len(d.orig) >= math.MaxInt32 {
			panic("graph: dense vertex capacity exceeds int32")
		}
		p = int32(len(d.orig)) //trikcheck:checked capacity panic above bounds len to int32
		d.orig = append(d.orig, v)
		d.vlive = append(d.vlive, true)
		d.rows = append(d.rows, nil)
	}
	d.pos[v] = p
	d.nv++
	d.fz.markRow(p)
	return p, true
}

// RemoveVertexV frees the slot of external vertex v. The vertex must be
// isolated (all incident edges already removed); it panics otherwise so a
// dangling row can never corrupt later merges.
func (d *Dense) RemoveVertexV(v Vertex) bool {
	if !d.removeVertex(v) {
		return false
	}
	d.debugAssert()
	return true
}

func (d *Dense) removeVertex(v Vertex) bool {
	p, ok := d.pos[v]
	if !ok {
		return false
	}
	if len(d.rows[p]) != 0 {
		panic(fmt.Sprintf("graph: RemoveVertexV(%d) with %d incident edges", v, len(d.rows[p])))
	}
	delete(d.pos, v)
	d.vlive[p] = false
	d.freeV = append(d.freeV, p)
	d.nv--
	if d.fz != nil {
		d.fz.removed = true
	}
	return true
}

// packedSearch binary-searches sorted packed row for neighbor w, returning
// the insertion index and whether the entry there is w.
func packedSearch(row []int64, w int32) (int, bool) {
	key := int64(w) << 32
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(row) && row[lo]>>32 == int64(w)
}

// insertAt inserts entry into u's sorted row at index at, keeping the
// row-capacity total in step with any reallocation.
func (d *Dense) insertAt(u int32, at int, entry int64) {
	row := d.rows[u]
	before := cap(row)
	row = append(row, 0)
	copy(row[at+1:], row[at:])
	row[at] = entry
	d.rows[u] = row
	d.rowCap += int64(cap(row) - before)
	d.fz.markRow(u)
}

// AddEdgeV inserts the undirected edge {u, v} over external ids, interning
// endpoints as needed, and returns the edge's dense id. If the edge
// already exists its current id is returned with added = false. It panics
// on self-loops.
func (d *Dense) AddEdgeV(u, v Vertex) (int32, bool) {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop on vertex %d", u))
	}
	du, _ := d.Intern(u)
	dv, _ := d.Intern(v)
	eid, added := d.addEdge(du, dv)
	if added {
		d.debugAssert()
	}
	return eid, added
}

// addEdge inserts the edge between distinct live slots du and dv unless
// it exists, returning its id and whether it was added.
func (d *Dense) addEdge(du, dv int32) (int32, bool) {
	atU, ok := packedSearch(d.rows[du], dv)
	if ok {
		return int32(uint32(d.rows[du][atU])), false
	}
	var eid int32
	if n := len(d.freeE); n > 0 {
		eid = d.freeE[n-1]
		d.freeE = d.freeE[:n-1]
	} else {
		if len(d.edgeU) >= math.MaxInt32 {
			panic("graph: dense edge capacity exceeds int32")
		}
		eid = int32(len(d.edgeU)) //trikcheck:checked capacity panic above bounds len to int32
		d.edgeU = append(d.edgeU, 0)
		d.edgeV = append(d.edgeV, 0)
	}
	d.edgeU[eid], d.edgeV[eid] = min(du, dv), max(du, dv)
	d.insertAt(du, atU, packLive(dv, eid))
	atV, _ := packedSearch(d.rows[dv], du)
	d.insertAt(dv, atV, packLive(du, eid))
	d.fz.markEdge(eid)
	d.ne++
	return eid, true
}

// RemoveEdgeByID deletes live edge eid from both endpoint rows and
// recycles its id.
func (d *Dense) RemoveEdgeByID(eid int32) {
	d.removeEdge(eid)
	d.debugAssert()
}

func (d *Dense) removeEdge(eid int32) {
	u, v := d.edgeU[eid], d.edgeV[eid]
	if u < 0 {
		panic(fmt.Sprintf("graph: RemoveEdgeByID(%d) on a free edge slot", eid))
	}
	d.removeFromRow(u, v)
	d.removeFromRow(v, u)
	d.edgeU[eid], d.edgeV[eid] = -1, -1
	d.freeE = append(d.freeE, eid)
	d.fz.markEdge(eid)
	d.ne--
}

func (d *Dense) removeFromRow(u, w int32) {
	row := d.rows[u]
	at, ok := packedSearch(row, w)
	if !ok {
		panic(fmt.Sprintf("graph: dense row %d missing neighbor %d", u, w))
	}
	copy(row[at:], row[at+1:])
	d.rows[u] = row[:len(row)-1]
	d.fz.markRow(u)
}

// EdgeLive reports whether eid names a live edge.
func (d *Dense) EdgeLive(eid int32) bool {
	return eid >= 0 && int(eid) < len(d.edgeU) && d.edgeU[eid] >= 0
}

// EdgeEndpoints returns the dense endpoints of live edge eid.
func (d *Dense) EdgeEndpoints(eid int32) (int32, int32) { return d.edgeU[eid], d.edgeV[eid] }

// EdgeAt returns live edge eid as a canonical Edge over external ids.
func (d *Dense) EdgeAt(eid int32) Edge {
	return NewEdge(d.orig[d.edgeU[eid]], d.orig[d.edgeV[eid]])
}

// EdgeIDD returns the dense id of the edge between dense vertices u and v,
// or -1, by binary search over the smaller row.
func (d *Dense) EdgeIDD(u, v int32) int32 {
	if len(d.rows[u]) > len(d.rows[v]) {
		u, v = v, u
	}
	if at, ok := packedSearch(d.rows[u], v); ok {
		return int32(uint32(d.rows[u][at]))
	}
	return -1
}

// EdgeIDV is EdgeIDD over external vertex ids.
func (d *Dense) EdgeIDV(u, v Vertex) int32 {
	du, okU := d.pos[u]
	dv, okV := d.pos[v]
	if !okU || !okV {
		return -1
	}
	return d.EdgeIDD(du, dv)
}

// HasEdgeV reports whether the edge {u, v} (external ids) is present.
func (d *Dense) HasEdgeV(u, v Vertex) bool { return d.EdgeIDV(u, v) >= 0 }

// DegreeD returns the degree of dense vertex u.
func (d *Dense) DegreeD(u int32) int { return len(d.rows[u]) }

// ForEachNeighborD calls fn for each neighbor of dense vertex u in
// ascending dense order, with the connecting edge id. If fn returns false
// the iteration stops.
func (d *Dense) ForEachNeighborD(u int32, fn func(w, eid int32) bool) {
	for _, p := range d.rows[u] {
		if !fn(int32(p>>32), int32(uint32(p))) {
			return
		}
	}
}

// ForEachEdgeID calls fn for every live edge id in ascending id order.
// If fn returns false the iteration stops.
func (d *Dense) ForEachEdgeID(fn func(eid int32) bool) {
	for i := range d.edgeU {
		if d.edgeU[i] >= 0 {
			if !fn(int32(i)) { //trikcheck:checked i indexes edgeU, bounded to int32 by AddEdgeV
				return
			}
		}
	}
}

// ForEachTriangleEdgeD calls fn for each triangle {u, v, w} on the edge
// between dense vertices u and v, passing the third vertex w (ascending
// dense order) and the dense edge ids e1 = {u, w}, e2 = {v, w} (see
// mergeRows). If fn returns false the iteration stops.
func (d *Dense) ForEachTriangleEdgeD(u, v int32, fn func(w, e1, e2 int32) bool) {
	mergeRows(d.rows[u], d.rows[v], fn)
}

// mergeRows calls fn for each neighbor w common to the sorted packed rows
// a and b, in ascending order, with the edge ids that pair it in a and in
// b. Balanced rows are intersected by linear merge; badly skewed pairs (a
// low-degree vertex against a hub row, the common case early in a
// power-law peel) binary-search the larger row instead, turning
// O(|a| + |b|) into O(min · log max). Either way it stops once a row is
// exhausted. If fn returns false the iteration stops.
func mergeRows(a, b []int64, fn func(w, ea, eb int32) bool) {
	if len(a) > 16*len(b) || len(b) > 16*len(a) {
		// Probe with the smaller row; swapped hands the edge ids back in
		// (a, b) order when the roles flip.
		swapped := len(a) > len(b)
		if swapped {
			a, b = b, a
		}
		for i := 0; i < len(a) && len(b) > 0; i++ {
			w := int32(a[i] >> 32)
			at, ok := packedSearch(b, w)
			b = b[at:] // everything before the insertion point sorts below w
			if !ok {
				continue
			}
			ea, eb := int32(uint32(a[i])), int32(uint32(b[0]))
			if swapped {
				ea, eb = eb, ea
			}
			if !fn(w, ea, eb) {
				return
			}
			b = b[1:]
		}
		return
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i]>>32, b[j]>>32
		switch {
		case x < y:
			i++
		case x > y:
			j++
		default:
			if !fn(int32(x), int32(uint32(a[i])), int32(uint32(b[j]))) { //trikcheck:checked x = packed>>32, a dense position
				return
			}
			i++
			j++
		}
	}
}

// Materialize builds a standalone mutable Graph holding the same vertices
// and edges: a copy of d's rows. It shares nothing with the Dense.
func (d *Dense) Materialize() *Graph { return &Graph{d: d.clone()} }

package graph

// LiveAdj is a mutable copy of a Static view's adjacency that supports
// removing edges as a peeling algorithm processes them. Rows stay sorted,
// so common-neighbor merges keep working — but they scan only the edges
// still live, which is what turns Algorithm 1's triangle visits from
// O(Σ d_u + d_v) over full rows into merges that shrink as the peel
// progresses. An entry w in u's live row exists exactly while the edge
// {u, w} is unremoved, so a triangle found by merging two live rows is
// guaranteed to consist of live edges only — no processed-edge checks
// needed in the inner loop.
//
// Each entry packs (neighbor << 32 | edge id) into one int64, so the
// merge streams a single array and a removal is a single memmove. Packing
// preserves per-row order because neighbors are unique within a row.
type LiveAdj struct {
	s     *Static
	row   []int64 // packed (nbr<<32 | edge id), live prefix per vertex
	start []int32 // per-vertex row start: u's live row is row[start[u]:end[u]]
	end   []int32 // per-vertex live end
}

func packLive(w, eid int32) int64 { return int64(w)<<32 | int64(uint32(eid)) }

// NewLiveAdj returns a fresh live adjacency over the edges of s whose
// support (indexed by dense edge id) is positive: an edge in no triangle
// is never the second or third edge of one, so a peel has no use for its
// entries. The copy is branch-free: every entry is stored at the cursor,
// which advances only past entries of positive support, so one slack
// slot past the kept entries absorbs the last store. The Static view is
// not modified; each LiveAdj owns its row storage.
func NewLiveAdj(s *Static, support []int32) *LiveAdj {
	n := s.NumVertices()
	entries := 0
	for _, x := range support {
		entries += 2 * int(positive(x))
	}
	la := &LiveAdj{
		s:     s,
		row:   make([]int64, entries+1),
		start: make([]int32, n),
		end:   make([]int32, n),
	}
	at := int32(0)
	for u := range la.start {
		nbr, eid := s.Row(int32(u)) //trikcheck:checked u < n, which the view bounds to int32
		la.start[u] = at
		for k, w := range nbr {
			la.row[at] = packLive(w, eid[k])
			at += positive(support[eid[k]])
		}
		la.end[u] = at
	}
	return la
}

// positive is 1 for a positive support and 0 for a zero one, without a
// branch: -x is negative exactly when x is positive.
func positive(x int32) int32 { return int32(uint32(-x) >> 31) }

// RemoveEdge deletes edge i from both endpoint rows. Callers are expected
// to remove each edge once.
func (la *LiveAdj) RemoveEdge(i int32) {
	u, v := la.s.Endpoints(i)
	la.removeFromRow(u, v)
	la.removeFromRow(v, u)
}

// removeFromRow deletes w from u's live row, preserving sort order with a
// tail shift (cheap: rows are short by the time heavy vertices peel, and
// the shift is a single memmove of packed entries).
func (la *LiveAdj) removeFromRow(u, w int32) {
	lo, hi := la.start[u], la.end[u]
	at, ok := packedSearch(la.row[lo:hi], w)
	if !ok {
		return
	}
	k := lo + int32(at) //trikcheck:checked at ≤ hi - lo, an int32 row length
	copy(la.row[k:hi-1], la.row[k+1:hi])
	la.end[u] = hi - 1
}

// ForEachTriangleEdge calls fn for each triangle {u, v, w} whose edges
// {u, w} and {v, w} are both live, passing w (ascending) and the two
// dense edge ids (see mergeRows). If fn returns false the iteration
// stops.
func (la *LiveAdj) ForEachTriangleEdge(u, v int32, fn func(w, e1, e2 int32) bool) {
	mergeRows(la.row[la.start[u]:la.end[u]], la.row[la.start[v]:la.end[v]], fn)
}

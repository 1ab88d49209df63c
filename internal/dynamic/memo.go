package dynamic

import (
	"fmt"
	"math/bits"
)

// triMemo is an apply context's per-op triangle memo. One edge operation
// of Algorithm 2 runs one Rule 0 search per triangle of its edge, and
// those searches keep revisiting the same κ=μ edges; the memo merges an
// edge's two rows the first time the op enumerates it and serves the
// stored (w, e1, e2) triples on every later visit in the same op.
//
// A listing is valid as long as the structure it was merged from and,
// on a staged context, the liveness of the edges in it. Both are fixed
// for the length of one op: the serial path adds an edge before its op
// and removes one after, a parallel epoch freezes G_max, and a staged op
// changes only its own edge's liveness, before its first listing or
// after its last visit. So a staged listing drops the triangles with an
// absent co-edge and records both co-edges of every merged triangle in
// the read set once, when it merges, and visits only apply the off-set
// filter (forEachActiveTriangleOn). The memo lives for one op: beginOff
// resets it, and nothing outside an open op reads it.
//
// The index is a small open-addressed table keyed by dense edge id and
// stamped with a generation, so a reset is O(1) and memory follows the
// op's working set rather than the edge count. The arena holds at most
// about memoCap entries: when the next listing may not fit, the memo
// empties and refills. A refill must not overwrite a listing still in
// use. No traversal callback lists triangles, so when listing runs the
// only listing in use is the updating edge's own, which the op listed
// first, at the start of its first arena. The first flush of an op
// therefore moves to the spare arena and keeps the first one intact;
// later flushes truncate the spare. Table and arenas are reused across
// ops, so the steady state allocates nothing.
type triMemo struct {
	slots    []memoSlot // len is zero or a power of two
	shift    uint       // 32 - log2(len(slots)), for the multiplicative hash
	gen      uint32     // slots stamped with gen are this op's
	n        int        // slots stamped with gen
	arena    []int32    // listings, back to back
	spare    []int32    // the other arena: the op's first while it refills
	refilled bool       // the op has flushed, so arena is the spare
}

// memoSlot locates edge eid's listing at arena[start:end].
type memoSlot struct {
	gen        uint32
	eid        int32
	start, end int
}

// memoCap bounds the entries one op's memo stores before it starts over
// (4 MiB of int32s). Per-op working sets on the benchmark workloads are
// tens of thousands of entries; an insertion into a clique K_c lists
// every clique edge, about 1.5c³ entries (11.8M for K_200), and the cap
// keeps the memo from holding memory in proportion.
const memoCap = 1 << 20

// reset empties the memo for a new op, keeping its storage.
func (m *triMemo) reset() {
	m.nextGen()
	m.arena = m.arena[:0]
	m.refilled = false
}

// flush empties the memo for a refill within the op. The op's first
// arena, which holds its own edge's listing, is set aside until reset.
func (m *triMemo) flush() {
	m.nextGen()
	if !m.refilled {
		m.arena, m.spare = m.spare, m.arena
		m.refilled = true
	}
	m.arena = m.arena[:0]
}

// nextGen retires every slot in O(1).
func (m *triMemo) nextGen() {
	m.gen++
	if m.gen == 0 {
		// Generation counter wrapped: stale stamps could collide, so wipe
		// them all once per 2^32 ops.
		for i := range m.slots {
			m.slots[i].gen = 0
		}
		m.gen = 1
	}
	m.n = 0
}

// probe returns eid's slot, or the empty slot where it belongs.
func (m *triMemo) probe(eid int32) *memoSlot {
	mask := len(m.slots) - 1
	for i := int((uint32(eid) * 0x9E3779B9) >> m.shift); ; i = (i + 1) & mask {
		if s := &m.slots[i]; s.gen != m.gen || s.eid == eid {
			return s
		}
	}
}

// get returns eid's listing if this op has stored one.
func (m *triMemo) get(eid int32) ([]int32, bool) {
	if m.n == 0 {
		return nil, false
	}
	s := m.probe(eid)
	if s.gen != m.gen {
		return nil, false
	}
	return m.arena[s.start:s.end:s.end], true
}

// put records arena[start:end] as eid's listing, keeping the table at
// most half full.
func (m *triMemo) put(eid int32, start, end int) {
	if m.gen == 0 {
		m.nextGen() // stamp 0 marks empty slots; the zero memo starts at 1
	}
	if 2*(m.n+1) > len(m.slots) {
		old := m.slots
		m.slots = make([]memoSlot, max(2*len(old), 256))
		m.shift = 33 - uint(bits.Len(uint(len(m.slots))))
		for _, s := range old {
			if s.gen == m.gen {
				*m.probe(s.eid) = s
			}
		}
	}
	*m.probe(eid) = memoSlot{gen: m.gen, eid: eid, start: start, end: end}
	m.n++
}

// listing returns the (w, e1, e2) triples of every triangle on edge eid,
// in merge order, from the memo when this op has listed eid before and
// from one merge of its two rows otherwise. Only an open op may call it.
func (c *applyCtx) listing(eid int32) []int32 {
	if debugChecks && c.offU < 0 {
		panic(fmt.Sprintf("trikdebug: triangle listing of edge %d outside an op", eid))
	}
	m := &c.memo
	if tris, ok := m.get(eid); ok {
		if debugChecks {
			c.checkListing(eid, tris)
		}
		return tris
	}
	c.stats.TriangleListings++
	d := c.en.d
	u, v := d.EdgeEndpoints(eid)
	if n := len(m.arena); n > 0 && n+3*min(d.DegreeD(u), d.DegreeD(v)) > memoCap {
		m.flush()
	}
	start := len(m.arena)
	d.ForEachTriangleEdgeD(u, v, func(w, e1, e2 int32) bool {
		if c.staged {
			c.readEdge(e1)
			c.readEdge(e2)
			if !c.live(e1) || !c.live(e2) {
				return true
			}
		}
		m.arena = append(m.arena, w, e1, e2)
		return true
	})
	end := len(m.arena)
	m.put(eid, start, end)
	return m.arena[start:end:end]
}

// checkListing panics unless tris is exactly what merging edge eid's rows
// lists now, through the same staged-liveness filter, which records
// nothing. trikdebug builds check every memo hit with it, and so check
// that no edge's liveness changed since the op listed it.
func (c *applyCtx) checkListing(eid int32, tris []int32) {
	u, v := c.en.d.EdgeEndpoints(eid)
	i := 0
	c.en.d.ForEachTriangleEdgeD(u, v, func(w, e1, e2 int32) bool {
		if c.staged && (!c.live(e1) || !c.live(e2)) {
			return true
		}
		if i+3 > len(tris) || tris[i] != w || tris[i+1] != e1 || tris[i+2] != e2 {
			panic(fmt.Sprintf("trikdebug: memo listing of edge %d differs from its rows at entry %d", eid, i))
		}
		i += 3
		return true
	})
	if i != len(tris) {
		panic(fmt.Sprintf("trikdebug: memo lists %d entries for edge %d, its rows %d", len(tris), eid, i))
	}
}

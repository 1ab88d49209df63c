package graph

import "fmt"

// CheckInvariants verifies the structural invariants of the dense
// substrate the dynamic engine and the trikcheck runtime assertions rely
// on, returning the first violation found (nil when consistent):
//
//   - the intern tables round-trip: every external id in pos maps to a
//     live slot holding it in orig, live slot counts match nv, and every
//     non-live slot is on the vertex free list exactly once;
//   - every adjacency row is strictly sorted by neighbor (the property
//     the galloping triangle merge and binary edge lookups require), has
//     no self-entries, and rows of dead vertices are empty;
//   - adjacency is symmetric: entry (w, eid) in row u implies entry
//     (u, eid) in row w, both matching the edge's endpoint arrays;
//   - edge ids below EdgeCap partition into live edges (counted by ne,
//     each present in exactly its two endpoint rows) and the holes
//     removals left since the last CompactEdges, each listed once.
//
// It is O(V + E log deg). Under the trikdebug build tag CompactEdges
// asserts it; see debugAssert.
func (d *Dense) CheckInvariants() error {
	n := len(d.orig)
	if len(d.vlive) != n || len(d.rows) != n {
		return fmt.Errorf("graph: vertex arrays disagree: %d orig, %d vlive, %d rows",
			n, len(d.vlive), len(d.rows))
	}
	if len(d.edgeU) != len(d.edgeV) {
		return fmt.Errorf("graph: endpoint arrays disagree: %d edgeU, %d edgeV", len(d.edgeU), len(d.edgeV))
	}

	// Vertex liveness and intern tables.
	if len(d.pos) != d.nv {
		return fmt.Errorf("graph: pos tracks %d vertices, nv = %d", len(d.pos), d.nv)
	}
	liveV := 0
	for p := range d.vlive {
		if d.vlive[p] {
			liveV++
			continue
		}
		if len(d.rows[p]) != 0 {
			return fmt.Errorf("graph: dead vertex slot %d has %d row entries", p, len(d.rows[p]))
		}
	}
	if liveV != d.nv {
		return fmt.Errorf("graph: %d slots live, nv = %d", liveV, d.nv)
	}
	for v, p := range d.pos {
		if int(p) < 0 || int(p) >= n || !d.vlive[p] || d.orig[p] != v {
			return fmt.Errorf("graph: intern tables do not round-trip vertex %d (slot %d)", v, p)
		}
	}
	freeVSeen := make(map[int32]bool, len(d.freeV))
	for _, p := range d.freeV {
		if int(p) < 0 || int(p) >= n || d.vlive[p] || freeVSeen[p] {
			return fmt.Errorf("graph: vertex free list corrupt at slot %d", p)
		}
		freeVSeen[p] = true
	}
	if liveV+len(d.freeV) != n {
		return fmt.Errorf("graph: %d live + %d free vertex slots, capacity %d", liveV, len(d.freeV), n)
	}

	// Edge holes.
	holeSeen := make(map[int32]bool, len(d.holes))
	for _, eid := range d.holes {
		if int(eid) < 0 || int(eid) >= len(d.edgeU) || d.edgeU[eid] >= 0 || holeSeen[eid] {
			return fmt.Errorf("graph: edge hole list corrupt at id %d", eid)
		}
		holeSeen[eid] = true
	}
	liveE := 0
	for eid := range d.edgeU {
		if d.edgeU[eid] >= 0 {
			liveE++
		} else if !holeSeen[int32(eid)] { //trikcheck:checked eid indexes edgeU, whose growth AddEdgeV bounds to int32
			return fmt.Errorf("graph: dead edge slot %d missing from hole list", eid)
		}
	}
	if liveE != d.ne {
		return fmt.Errorf("graph: %d edge slots live, ne = %d", liveE, d.ne)
	}
	if liveE+len(d.holes) != len(d.edgeU) {
		return fmt.Errorf("graph: %d live edges + %d holes, capacity %d", liveE, len(d.holes), len(d.edgeU))
	}

	// Rows: sortedness, symmetry, endpoint agreement.
	entries := 0
	for p := range d.rows {
		u := int32(p) //trikcheck:checked p indexes rows, whose growth Intern bounds to int32
		row := d.rows[p]
		entries += len(row)
		for i, packed := range row {
			w := int32(packed >> 32)
			eid := int32(uint32(packed))
			if i > 0 && row[i-1]>>32 >= packed>>32 {
				return fmt.Errorf("graph: row %d not strictly sorted at index %d", u, i)
			}
			if w == u {
				return fmt.Errorf("graph: row %d holds a self-entry", u)
			}
			if int(w) < 0 || int(w) >= n || !d.vlive[w] {
				return fmt.Errorf("graph: row %d references dead vertex %d", u, w)
			}
			if int(eid) < 0 || int(eid) >= len(d.edgeU) || d.edgeU[eid] < 0 {
				return fmt.Errorf("graph: row %d references dead edge %d", u, eid)
			}
			a, b := u, w
			if a > b {
				a, b = b, a
			}
			if d.edgeU[eid] != a || d.edgeV[eid] != b {
				return fmt.Errorf("graph: edge %d endpoints (%d, %d) disagree with row entry {%d, %d}",
					eid, d.edgeU[eid], d.edgeV[eid], u, w)
			}
			at, ok := packedSearch(d.rows[w], u)
			if !ok || int32(uint32(d.rows[w][at])) != eid {
				return fmt.Errorf("graph: edge %d in row %d has no mirror in row %d", eid, u, w)
			}
		}
	}
	if entries != 2*d.ne {
		return fmt.Errorf("graph: rows hold %d entries, ne = %d", entries, d.ne)
	}
	return nil
}

// debugAssert panics on the first invariant violation when the trikdebug
// build tag is set, and compiles to nothing otherwise. CompactEdges calls
// it on exit, so the O(V + E) check runs once per engine batch or Graph
// removal, not once per edge.
func (d *Dense) debugAssert() {
	if !debugChecks {
		return
	}
	if err := d.CheckInvariants(); err != nil {
		panic("trikdebug: " + err.Error())
	}
}

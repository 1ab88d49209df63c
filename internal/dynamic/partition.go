package dynamic

// Region partitioning for ApplyBatchParallel.
//
// After the pre-pass has resolved a canonicalized batch against the
// substrate (every surviving insertion structurally added, every
// surviving deletion identified by dense edge id), the batch's ops are
// grouped into affected regions that can be κ-maintained independently.
// The grouping key is the triangle ball of an op's edge on G_max — the
// graph containing the union of the pre- and post-batch edge sets: the
// edge itself plus the co-edges of every combinatorial triangle through
// it. By the containment property of incremental truss/triangle-core
// maintenance (Zhou et al.), an op's κ changes propagate only through
// triangle-connected chains starting at its triangles, so two ops whose
// balls are disjoint start their cascades from disjoint frontiers.
//
// The ball is a 1-hop heuristic, not the full triangle-connected closure:
// a cascade can run past the first ball into territory another region
// also reaches. That is deliberate — computing exact triangle-connected
// components would cost more than the batch itself on dense graphs — and
// safe, because the coordinator validates every region's recorded read
// set against earlier-merged writes at the epoch barrier and demotes any
// overlap to the serialized conflict suffix (parallel.go). Partitioning
// only has to make overlap rare, never impossible.
//
// Two op-level prunes keep trivially-independent ops out of real regions,
// both exact (not heuristic):
//
//   - an insertion whose edge closes no triangle in G_max has support 0
//     there, and support in any subgraph is no larger, so by the support
//     upper bound κ(e) ≤ supp(e) (Burkhardt et al.) the new edge lands at
//     κ = 0 and, participating in no triangle, moves nothing else;
//   - a deletion whose edge has κ = 0 in the pre-batch state only loses
//     triangles with μ = min(κ of the 3 edges) = 0, and by the paper's
//     Rule 0 a μ = 0 triangle change moves no κ at all.
//
// Pruned ops skip ball enumeration and stamp only their own edge, so they
// coalesce with a region only when that region's ball contains the edge
// itself. Their execution still records a read set, so the barrier
// validation covers them like any other op.
type resolvedOp struct {
	eid int32
	del bool
}

// partition groups resolved ops into regions by ball overlap using a
// union-find over op indices, returning the number of regions. Region ids
// are assigned in ascending order of each group's smallest op index, and
// each region's op list preserves canonical batch order — both facts are
// what make the epoch's merge order (and so the final state) independent
// of worker count.
func (p *parScratch) partition(en *Engine, resolved []resolvedOp) int {
	n := len(resolved)
	p.ufParent = p.ufParent[:0]
	for i := 0; i < n; i++ {
		p.ufParent = append(p.ufParent, int32(i)) //trikcheck:checked op index bounded by batch length
	}
	p.ballGen++
	if p.ballGen == 0 {
		for i := range p.ballMark {
			p.ballMark[i] = 0
		}
		p.ballGen = 1
	}
	p.ballMark = grow(p.ballMark, en.d.EdgeCap())
	p.ballOp = grow(p.ballOp, en.d.EdgeCap())

	for k, r := range resolved {
		k32 := int32(k) //trikcheck:checked op index bounded by batch length
		p.stamp(r.eid, k32)
		if r.del && en.kappa[r.eid] == 0 {
			continue // κ=0 deletion: exact prune, own edge only
		}
		u, v := en.d.EdgeEndpoints(r.eid)
		en.d.ForEachTriangleEdgeD(u, v, func(_, e1, e2 int32) bool {
			p.stamp(e1, k32)
			p.stamp(e2, k32)
			return true
		})
		// A support-0 insertion never enters the loop body: its ball is
		// empty beyond the edge itself, which is the exact prune above.
	}

	// Assign region ids ascending by smallest member op index: the root of
	// every union-find component is its minimum (union attaches the larger
	// root under the smaller), and op indexes are scanned in order.
	p.regionID = p.regionID[:0]
	nRegions := 0
	for k := 0; k < n; k++ {
		root := p.find(int32(k)) //trikcheck:checked op index bounded by batch length
		if int(root) == k {
			p.regionID = append(p.regionID, int32(nRegions)) //trikcheck:checked region count ≤ op count
			nRegions++
		} else {
			p.regionID = append(p.regionID, p.regionID[root])
		}
	}

	for len(p.regions) < nRegions {
		p.regions = append(p.regions, region{})
	}
	for i := 0; i < nRegions; i++ {
		rg := &p.regions[i]
		rg.ops = rg.ops[:0]
		rg.reads = rg.reads[:0]
		rg.writes = rg.writes[:0]
		rg.vals = rg.vals[:0]
		rg.stats = Stats{}
	}
	for k, r := range resolved {
		rg := &p.regions[p.regionID[k]]
		rg.ops = append(rg.ops, r)
	}
	return nRegions
}

// stamp records that op k's ball contains edge e, unioning k with any op
// that stamped e earlier.
func (p *parScratch) stamp(e, k int32) {
	if p.ballMark[e] == p.ballGen {
		p.union(p.ballOp[e], k)
		return
	}
	p.ballMark[e] = p.ballGen
	p.ballOp[e] = k
}

// find returns the root of op x with path halving.
func (p *parScratch) find(x int32) int32 {
	for p.ufParent[x] != x {
		p.ufParent[x] = p.ufParent[p.ufParent[x]]
		x = p.ufParent[x]
	}
	return x
}

// union merges the components of a and b, keeping the smaller root — so a
// component's root is always its minimum op index.
func (p *parScratch) union(a, b int32) {
	ra, rb := p.find(a), p.find(b)
	if ra == rb {
		return
	}
	if ra < rb {
		p.ufParent[rb] = ra
	} else {
		p.ufParent[ra] = rb
	}
}

package dynamic

import (
	"sync"
	"sync/atomic"
	"time"

	"trikcore/internal/obs"
	"trikcore/internal/obs/trace"
)

// applyParallel runs a canonicalized batch as one epoch with κ
// maintenance fanned out over workers goroutines, returning how many ops
// survived canonicalization and the applied counts. It is equivalent to
// the serial path — same final graph, same final κ assignment,
// net-effect transitions through the same funnel — for every batch and
// any worker count; only the internal work accounting (Stats) may
// differ, since regions traverse against a frozen base rather than each
// other's intermediate states.
//
// The epoch protocol (DESIGN.md §"Epoch-coordinated parallel
// maintenance"):
//
//  1. resolve (serial): canonicalize the batch, drop no-ops, add every
//     surviving insertion to the substrate pending, at κ = -1 — the
//     structure is now G_max and frozen for the epoch, and since κ = -1
//     reads as absent the active graph equals the pre-batch graph;
//  2. partition (serial): group ops into regions by triangle-ball overlap
//     (partition.go);
//  3. execute (parallel): workers claim regions off a shared cursor and
//     run the ordinary insert/delete traversals against worker-local
//     staged contexts — the substrate and every κ are read-only, all
//     writes land in per-worker overlays, and every edge whose κ or
//     liveness a region depends on is in its read set;
//  4. merge (serial, at the epoch barrier): regions are validated in
//     ascending region order — a region whose read set intersects an
//     earlier-merged region's write set is demoted to the conflict
//     suffix, everything else lands its staged transitions through the
//     κ-transition funnel; then the suffix re-executes serially against
//     the merged state and lands last;
//  5. cleanup (serial): deleted edges leave the substrate; the caller
//     advances the version once if anything changed.
//
// Because partitioning, region execution, validation order and merge
// order are all independent of scheduling, epochs at any worker count of
// 2 or more leave identical engine state, dense slot numbering included.
// The serial path reaches the same κ per edge, and so the same served
// bodies, but numbers dense slots differently: it frees the deleted slots
// before its insertions reuse them, while an epoch pre-inserts first.
func (en *Engine) applyParallel(tr *trace.Trace, ops []EdgeOp, workers int) (kept, added, removed int) {
	defer en.startStage(tr, stApplyParallel).End()
	p := &en.par

	// Resolve: canonicalize, drop no-ops, pre-insert the insertions. After
	// this the structure is G_max and frozen until cleanup. A pre-inserted
	// edge takes a free slot, which holds κ = -1, so it reads as absent:
	// the active graph stays the pre-batch edge set, for which the
	// maintained κ is a consistent assignment.
	sp := en.startStage(tr, stResolve)
	buf := canonicalizeOps(ops, en.ser.sc.ops)
	en.ser.sc.ops = buf
	resolved := p.resolved[:0]
	for _, op := range buf {
		if op.Del {
			eid := en.d.EdgeIDV(op.U, op.V)
			if eid < 0 {
				continue
			}
			resolved = append(resolved, resolvedOp{eid: eid, del: true})
			removed++
		} else {
			eid, ok := en.d.AddEdgeV(op.U, op.V)
			if !ok {
				continue
			}
			resolved = append(resolved, resolvedOp{eid: eid})
			added++
		}
	}
	p.resolved = resolved
	en.ensureEdgeCap()
	en.ensureVertexCap()
	sp.End()
	if len(resolved) == 0 {
		return len(buf), 0, 0
	}

	sp = en.startStage(tr, stPartition)
	nRegions := p.partition(en, resolved)
	sp.End()

	// Execute: nw workers drain the region list through a shared atomic
	// cursor. Claiming order is scheduling-dependent; nothing else is —
	// each region's result is a pure function of the frozen base.
	sp = en.startStage(tr, stExecute)
	nw := workers
	if nw > nRegions {
		nw = nRegions
	}
	for len(p.ctxs) < nw {
		c := &applyCtx{staged: true}
		c.init(en)
		c.en = en
		p.ctxs = append(p.ctxs, c)
	}
	for len(p.busy) < nw {
		p.busy = append(p.busy, 0)
	}
	ecap := en.d.EdgeCap()
	for _, c := range p.ctxs[:nw] {
		c.growEdges(ecap)
		c.growVertices(en.d.VertexCap())
	}
	timed := en.mt != nil
	var cursor atomic.Int64
	var wg sync.WaitGroup
	var barrier obs.Span
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := p.ctxs[w]
			var t0 time.Time
			if timed {
				t0 = time.Now()
			}
			for {
				i := int(cursor.Add(1)) - 1
				if i >= nRegions {
					break
				}
				c.execRegion(&p.regions[i])
			}
			if timed {
				p.busy[w] = time.Since(t0)
			}
		}(w)
	}
	if en.mt != nil {
		barrier = obs.StartSpan(en.mt.barrierWaitSeconds)
	}
	wg.Wait()
	barrier.End()
	sp.End()

	// Merge at the barrier: validate ascending, land clean regions through
	// the funnel, re-execute the conflict suffix against the merged state.
	sp = en.startStage(tr, stMerge)
	p.wGen++
	if p.wGen == 0 {
		for i := range p.wMark {
			p.wMark[i] = 0
		}
		p.wGen = 1
	}
	p.wMark = grow(p.wMark, ecap)
	sfx := p.suffix[:0]
	conflicted := 0
	for i := 0; i < nRegions; i++ {
		rg := &p.regions[i]
		clean := true
		for _, e := range rg.reads {
			if p.wMark[e] == p.wGen {
				clean = false
				break
			}
		}
		if !clean {
			// Some earlier-merged region wrote state this region read: its
			// staged result reflects a stale base. Its ops re-run in the
			// suffix, which is the last slot of the serialization order —
			// the one place a re-execution sees every earlier write.
			sfx = append(sfx, rg.ops...)
			conflicted++
			continue
		}
		en.mergeStaged(rg.writes, rg.vals)
		for _, e := range rg.writes {
			p.wMark[e] = p.wGen
		}
		en.stats.accumulate(rg.stats)
	}
	p.suffix = sfx
	if len(sfx) > 0 {
		rg := &p.sfxRegion
		rg.ops = append(rg.ops[:0], sfx...)
		rg.reads = rg.reads[:0]
		rg.writes = rg.writes[:0]
		rg.vals = rg.vals[:0]
		rg.stats = Stats{}
		p.ctxs[0].execRegion(rg)
		en.mergeStaged(rg.writes, rg.vals)
		en.stats.accumulate(rg.stats)
	}
	sp.End()

	// Cleanup: deletions leave the substrate (their removal transitions
	// already fired at merge, while the edges were still live, and left
	// their slots at κ = -1). Every pending insertion was activated by a
	// merge, so none is left at κ = -1.
	for _, r := range resolved {
		if r.del {
			en.d.RemoveEdgeByID(r.eid)
		}
	}
	if en.mt != nil {
		en.mt.regionsPerBatch.Observe(float64(nRegions))
		for i := 0; i < nRegions; i++ {
			en.mt.regionSize.Observe(float64(len(p.regions[i].ops)))
		}
		en.mt.regionConflicts.Add(uint64(conflicted))
		for _, d := range p.busy[:nw] {
			en.mt.workerBusySeconds.Observe(d.Seconds())
		}
	}
	return len(buf), added, removed
}

// region is one unit of parallel work: a group of resolved ops plus the
// result of executing them against the frozen base — the recorded read
// set, the staged writes in first-touch order with their final values,
// and the work counters.
type region struct {
	ops                 []resolvedOp
	reads, writes, vals []int32
	stats               Stats
}

// parScratch is the engine-owned workspace of ApplyBatchParallel, reused
// across epochs: the resolved op list, the ball-stamping and union-find
// state of partitioning, the region records, the per-worker staged
// contexts, and the merge-time written-edge marks. An engine that never
// runs an epoch allocates none of it.
type parScratch struct {
	resolved  []resolvedOp
	ufParent  []int32
	regionID  []int32
	ballMark  []uint32
	ballOp    []int32
	ballGen   uint32
	regions   []region
	ctxs      []*applyCtx
	busy      []time.Duration
	wMark     []uint32
	wGen      uint32
	suffix    []resolvedOp
	sfxRegion region
}

// execRegion runs one region's ops — deletions, then insertions, each in
// canonical batch order — on a staged context and copies the context's
// read set, write set and staged values into the region record.
func (c *applyCtx) execRegion(rg *region) {
	c.gen++
	if c.gen == 0 {
		// Generation wrapped: wipe stale overlay and read marks.
		for i := range c.sMark {
			c.sMark[i] = 0
			c.rMark[i] = 0
		}
		c.gen = 1
	}
	c.reads = c.reads[:0]
	c.writes = c.writes[:0]
	c.stats = &rg.stats
	for _, op := range rg.ops {
		if op.del {
			c.processEdgeDelete(op.eid)
		}
	}
	for _, op := range rg.ops {
		if !op.del {
			c.processEdgeInsert(op.eid)
		}
	}
	rg.reads = append(rg.reads[:0], c.reads...)
	rg.writes = append(rg.writes[:0], c.writes...)
	rg.vals = rg.vals[:0]
	for _, e := range c.writes {
		rg.vals = append(rg.vals, c.sKappa[e])
	}
}

// mergeStaged lands one region's staged transitions on the engine, in the
// region's first-write order, through the κ-transition funnel. The old
// value of each transition is the engine's κ: -1 for a pending insertion
// of this batch, which is active from now on, the maintained κ
// otherwise; staged -1 values are completed deletions. Transitions that
// net to no change are skipped, so observers see exactly the per-edge
// net effect of the batch, as with ApplyBatch's canonicalization.
func (en *Engine) mergeStaged(writes, vals []int32) {
	for i, e := range writes {
		if old, v := en.kappa[e], vals[i]; old != v {
			en.setKappa(e, old, v)
		}
	}
}

// accumulate folds another Stats into s.
func (s *Stats) accumulate(o Stats) {
	s.Insertions += o.Insertions
	s.Deletions += o.Deletions
	s.TrianglesProcessed += o.TrianglesProcessed
	s.EdgesVisited += o.EdgesVisited
	s.Promotions += o.Promotions
	s.Demotions += o.Demotions
	s.TriangleListings += o.TriangleListings
}

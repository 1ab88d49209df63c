// Package extcore decomposes graphs whose peel state does not fit in
// memory: an out-of-core Triangle K-Core decomposition over vertex-range
// partitions of a frozen (typically mmap'd) CSR view.
//
// The in-memory algorithm (internal/core) holds three O(M) structures at
// once: the κ̃ support array, the bucket queue and the live adjacency.
// This package replaces the global min-order peel with a level-synchronous
// bottom-up peel — process κ levels in increasing order, at each level
// peeling every live edge whose bound equals the level — which admits
// partitioning: edge ids are lexicographic in the lower endpoint, so a
// vertex range owns a contiguous edge-id range, and only the active
// partition's support slice, peel queue and packed live rows are resident.
// Support values for inactive partitions live in a scratch file; triangle
// decrements that cross a partition boundary are spilled to per-partition
// delta files and applied, with the same Theorem 1 guard the serial
// algorithm uses, when the target partition next activates. Levels sweep
// the partitions until a full round peels nothing, which (since every
// activation drains its spill file first) is a fixpoint.
//
// The level-synchronous schedule processes edges in a different order
// than Algorithm 1's global min-heap, but κ is schedule-independent: both
// peel an edge exactly when its bound is the current minimum level, and
// the guard keeps every bound at or above the level, so the κ values —
// byte for byte — match core.DecomposeStatic. The equivalence is fuzzed
// in extcore_test.go across memory budgets.
package extcore

import (
	"errors"
	"fmt"
	"math"
	"time"

	"trikcore/internal/core"
	"trikcore/internal/graph"
	"trikcore/internal/obs"
)

// Options configure Decompose.
type Options struct {
	// MemBudget bounds, in bytes, the resident per-partition peel state:
	// the active partition's support slice, its peel queue and its packed
	// live rows. Zero or negative means unbounded, which collapses to the
	// in-memory kernels over the (possibly mapped) view. Global index
	// state — the κ output, the live-edge bitset and the O(N) partition
	// table — is not charged against the budget.
	MemBudget int64
	// Parallelism bounds the support-phase goroutines on the in-memory
	// path. Zero means GOMAXPROCS. The partitioned path is sequential:
	// its concurrency unit is the partition activation, and correctness
	// of the spill protocol depends on one activation at a time.
	Parallelism int
	// TempDir receives the support scratch file and the per-partition
	// spill files. Empty means the system temp directory.
	TempDir string
	// Metrics, when non-nil, receives the extcore counters and gauges
	// (see newMetrics for the series).
	Metrics *obs.Registry
}

// Stats reports how a decomposition ran.
type Stats struct {
	// Partitions is the number of vertex-range partitions the budget
	// produced; 1 means the in-memory path ran.
	Partitions int
	// External reports whether the partitioned out-of-core path ran.
	External bool
	// Levels is the number of distinct κ levels processed.
	Levels int
	// Sweeps counts full partition rounds across all levels.
	Sweeps int64
	// Activations counts partition loads (support slice read + rows built).
	Activations int64
	// SpillRecords and SpillBytes count cross-partition decrement records.
	SpillRecords int64
	SpillBytes   int64
	// PeakResidentBytes is the largest resident peel state of any single
	// activation: support slice + peel queue + packed live rows.
	PeakResidentBytes int64
}

// Result is the output of an out-of-core decomposition: κ per dense edge
// id of the view it ran on, plus run statistics.
type Result struct {
	Kappa    []int32
	MaxKappa int32
	Stats    Stats
}

// Decompose computes κ(e) for every edge of s under the memory budget in
// opts. The result's Kappa slice is indexed by s's dense edge ids and is
// identical to core.DecomposeStatic's.
func Decompose(s *graph.Static, opts Options) (*Result, error) {
	mets := newMetrics(opts.Metrics)
	parts := planPartitions(s, opts.MemBudget)
	mets.partitions.Set(int64(len(parts)))
	if len(parts) <= 1 {
		return decomposeResident(s, opts, mets), nil
	}
	return decomposePartitioned(s, parts, opts, mets)
}

// decomposeResident is the unbounded path: the same kernels the
// in-memory decomposition uses, which read a mapped view exactly as a
// frozen one (both are a *graph.Static).
func decomposeResident(s *graph.Static, opts Options, mets metrics) *Result {
	start := time.Now()
	support := core.ComputeSupport(s, opts.Parallelism)
	r := core.Peel(s, support)
	// Support and queue take 8 B per edge. The peel's live rows hold two
	// packed 8-byte entries per edge in a triangle (graph.NewLiveAdj
	// skips support-0 edges) and two int32 row bounds per vertex.
	var rows int64
	for _, x := range support {
		if x > 0 {
			rows += 2
		}
	}
	resident := int64(s.NumEdges())*8 + rows*8 + int64(s.NumVertices())*8
	mets.residentPeak.Set(resident)
	mets.activations.Inc()
	mets.levelSeconds.Observe(time.Since(start).Seconds())
	return &Result{
		Kappa:    r.Kappa,
		MaxKappa: r.MaxKappa,
		Stats: Stats{
			Partitions:        1,
			Levels:            levelCount(r.Kappa),
			Activations:       1,
			PeakResidentBytes: resident,
		},
	}
}

// levelCount returns the number of distinct κ values present.
func levelCount(kappa []int32) int {
	if len(kappa) == 0 {
		return 0
	}
	maxK := int32(0)
	for _, k := range kappa {
		if k > maxK {
			maxK = k
		}
	}
	seen := make([]bool, maxK+1)
	n := 0
	for _, k := range kappa {
		if !seen[k] {
			seen[k] = true
			n++
		}
	}
	return n
}

// decomposePartitioned is the out-of-core driver. See the package
// comment for the schedule; the phases are
//
//	init A: per partition, count owned-edge supports off the oriented
//	        listing, spilling +1 credits for foreign edges
//	init B: per partition, apply spilled credits, record the level floor
//	peel:   level-synchronous partition sweeps to fixpoint per level
func decomposePartitioned(s *graph.Static, parts []partition, opts Options, mets metrics) (*Result, error) {
	m := s.NumEdges()
	st := &extState{
		s:        s,
		parts:    parts,
		kappa:    make([]int32, m),
		live:     newBitset(m),
		liveLeft: make([]int32, len(parts)),
		minLive:  make([]int32, len(parts)),
		mets:     mets,
	}
	st.stats.Partitions = len(parts)
	st.stats.External = true
	for i := range st.live.w {
		st.live.w[i] = ^uint64(0)
	}
	st.live.clampTail(m)
	for pi, p := range parts {
		st.liveLeft[pi] = p.eHi - p.eLo
	}

	supp, err := newSuppFile(opts.TempDir, m)
	if err != nil {
		return nil, err
	}
	spills, err := newSpillSet(opts.TempDir, len(parts))
	if err != nil {
		return nil, errors.Join(err, supp.close())
	}
	st.supp, st.spills = supp, spills
	// Scratch cleanup; the κ result never depends on these files.
	defer supp.close()
	defer spills.close()

	if err := st.initSupport(); err != nil {
		return nil, err
	}
	if err := st.peelLevels(); err != nil {
		return nil, err
	}

	st.stats.SpillRecords = st.spills.records
	st.stats.SpillBytes = st.spills.bytes
	mets.spillRecords.Add(uint64(st.spills.records))
	mets.spillBytes.Add(uint64(st.spills.bytes))
	mets.residentPeak.Set(st.stats.PeakResidentBytes)
	maxK := int32(0)
	for _, k := range st.kappa {
		if k > maxK {
			maxK = k
		}
	}
	return &Result{Kappa: st.kappa, MaxKappa: maxK, Stats: st.stats}, nil
}

// extState is the mutable state of one partitioned run.
type extState struct {
	s     *graph.Static
	parts []partition

	kappa []int32
	live  *bitset
	// liveLeft[pi] counts live edges owned by partition pi; minLive[pi]
	// is the smallest support among them as of pi's last activation (a
	// lower bound stays valid: later cross-partition decrements set the
	// partition's pending flag, forcing reactivation).
	liveLeft []int32
	minLive  []int32

	supp   *suppFile
	spills *spillSet

	stats Stats
	mets  metrics

	// activation scratch, reused across activations
	suppBuf  []int32
	rowOff   []int32
	rowFlat  []uint64
	queueBuf []int32
}

// initSupport runs the two-pass out-of-core support initialization.
func (st *extState) initSupport() error {
	s := st.s
	// Pass A: oriented triangle counting per partition. Each triangle is
	// listed once (by its lowest-ranked edge); the two other edges get
	// local credits when owned, spill credits otherwise.
	for pi := range st.parts {
		p := st.parts[pi]
		supp := st.suppSlice(p)
		clear(supp)
		credit := func(e int32) error {
			if e >= p.eLo && e < p.eHi {
				supp[e-p.eLo]++
				return nil
			}
			return st.spills.append(st.partOf(e), e, 1)
		}
		var ferr error
		for i := p.eLo; i < p.eHi; i++ {
			s.ForEachOrientedTriangle(i, func(e1, e2 int32) bool {
				supp[i-p.eLo]++
				if ferr = credit(e1); ferr != nil {
					return false
				}
				if ferr = credit(e2); ferr != nil {
					return false
				}
				return true
			})
			if ferr != nil {
				return ferr
			}
		}
		if err := st.supp.write(p.eLo, supp); err != nil {
			return err
		}
		st.noteActivation(int64(len(supp))*4, 0, 0)
	}
	// Pass B: fold the spilled credits in and record each partition's
	// level floor.
	for pi := range st.parts {
		p := st.parts[pi]
		supp := st.suppSlice(p)
		if err := st.supp.read(p.eLo, supp); err != nil {
			return err
		}
		err := st.spills.drain(pi, func(e, delta int32) error {
			if e < p.eLo || e >= p.eHi {
				return fmt.Errorf("extcore: spill record for edge %d outside partition [%d, %d)", e, p.eLo, p.eHi)
			}
			supp[e-p.eLo] += delta
			return nil
		})
		if err != nil {
			return err
		}
		if err := st.supp.write(p.eLo, supp); err != nil {
			return err
		}
		st.minLive[pi] = minOf(supp)
		st.noteActivation(int64(len(supp))*4, 0, 0)
	}
	return nil
}

// peelLevels runs the level-synchronous peel to completion.
func (st *extState) peelLevels() error {
	for {
		k, any := st.nextLevel()
		if !any {
			return nil
		}
		levelStart := time.Now()
		for {
			peeled := 0
			for pi := range st.parts {
				if st.liveLeft[pi] == 0 {
					// Dead partitions may still receive spill records for
					// edges that died after the sender enumerated them;
					// the records are moot, drop them.
					if st.spills.pending(pi) > 0 {
						if err := st.spills.drain(pi, func(int32, int32) error { return nil }); err != nil {
							return err
						}
					}
					continue
				}
				if st.spills.pending(pi) == 0 && st.minLive[pi] > k {
					continue
				}
				n, err := st.activate(pi, k)
				if err != nil {
					return err
				}
				peeled += n
			}
			st.stats.Sweeps++
			st.mets.sweeps.Inc()
			if peeled == 0 {
				break
			}
		}
		st.stats.Levels++
		st.mets.levelSeconds.Observe(time.Since(levelStart).Seconds())
	}
}

// nextLevel returns the smallest support among live edges, per the
// minLive floors, and whether any live edge remains.
func (st *extState) nextLevel() (int32, bool) {
	k := int32(math.MaxInt32)
	any := false
	for pi := range st.parts {
		if st.liveLeft[pi] == 0 {
			continue
		}
		any = true
		if st.minLive[pi] < k {
			k = st.minLive[pi]
		}
	}
	return k, any
}

// activate loads partition pi, applies its pending spill records, peels
// every live owned edge whose bound equals k (with cascade), writes the
// support slice back and refreshes the partition's level floor. It
// returns the number of edges peeled.
func (st *extState) activate(pi int, k int32) (int, error) {
	p := st.parts[pi]
	supp := st.suppSlice(p)
	if err := st.supp.read(p.eLo, supp); err != nil {
		return 0, err
	}
	// Apply cross-partition decrements under the same guard the serial
	// algorithm applies locally: a bound at or below the peel level
	// already accounts for the lost triangle.
	err := st.spills.drain(pi, func(e, kt int32) error {
		if e < p.eLo || e >= p.eHi {
			return fmt.Errorf("extcore: spill record for edge %d outside partition [%d, %d)", e, p.eLo, p.eHi)
		}
		if le := e - p.eLo; st.live.get(e) && supp[le] > kt {
			supp[le]--
		}
		return nil
	})
	if err != nil {
		return 0, err
	}

	st.buildRows(p)
	queue := st.queueBuf[:0]
	for le := range supp {
		e := p.eLo + int32(le) //trikcheck:checked owned ≤ m < 2^31
		if supp[le] == k && st.live.get(e) {
			queue = append(queue, e)
		}
	}

	peeled := 0
	for len(queue) > 0 {
		e := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if !st.live.get(e) {
			continue
		}
		st.live.clear(e)
		st.liveLeft[pi]--
		st.kappa[e] = k
		peeled++
		u, v := st.s.Endpoints(e)
		err := st.forEachLiveTriangle(p, u, v, func(e1, e2 int32) error {
			var derr error
			queue, derr = st.dec(p, supp, queue, e1, k)
			if derr != nil {
				return derr
			}
			queue, derr = st.dec(p, supp, queue, e2, k)
			return derr
		})
		if err != nil {
			return peeled, err
		}
	}
	st.queueBuf = queue[:0]

	if err := st.supp.write(p.eLo, supp); err != nil {
		return peeled, err
	}
	st.minLive[pi] = st.minLiveOwned(p, supp)
	st.noteActivation(int64(len(supp))*4, int64(len(st.rowFlat))*8+int64(len(st.rowOff))*4, int64(cap(st.queueBuf))*4)
	return peeled, nil
}

// dec applies one triangle-loss decrement to edge e at level k: owned
// edges decrement locally (entering the peel queue when they reach the
// level), foreign edges spill to their partition's delta file.
func (st *extState) dec(p partition, supp []int32, queue []int32, e int32, k int32) ([]int32, error) {
	if e >= p.eLo && e < p.eHi {
		if le := e - p.eLo; supp[le] > k {
			supp[le]--
			if supp[le] == k {
				queue = append(queue, e)
			}
		}
		return queue, nil
	}
	return queue, st.spills.append(st.partOf(e), e, k)
}

// minLiveOwned returns the smallest support among the partition's live
// owned edges, or MaxInt32 when none remain.
func (st *extState) minLiveOwned(p partition, supp []int32) int32 {
	minK := int32(math.MaxInt32)
	for le, sv := range supp {
		if sv < minK && st.live.get(p.eLo+int32(le)) { //trikcheck:checked owned ≤ m < 2^31
			minK = sv
		}
	}
	return minK
}

// buildRows packs the live adjacency rows of the partition's vertices
// into the reusable flat scratch: rowFlat[rowOff[u-vLo]:rowOff[u-vLo+1]]
// holds (w<<32 | edge id) entries for live edges of owned vertex u, in
// neighbor order. Entries can die during the activation; consumers
// re-check the bitset.
func (st *extState) buildRows(p partition) {
	nv := int(p.vHi - p.vLo)
	if cap(st.rowOff) < nv+1 {
		st.rowOff = make([]int32, nv+1)
	}
	st.rowOff = st.rowOff[:nv+1]
	st.rowFlat = st.rowFlat[:0]
	for u := p.vLo; u < p.vHi; u++ {
		st.rowOff[u-p.vLo] = int32(len(st.rowFlat)) //trikcheck:checked row entries ≤ 2m < 2^31
		nbr, eid := st.s.Row(u)
		for i, w := range nbr {
			if st.live.get(eid[i]) {
				st.rowFlat = append(st.rowFlat, pack(w, eid[i]))
			}
		}
	}
	st.rowOff[nv] = int32(len(st.rowFlat)) //trikcheck:checked row entries ≤ 2m < 2^31
}

func pack(w, eid int32) uint64 { return uint64(uint32(w))<<32 | uint64(uint32(eid)) }

// forEachLiveTriangle enumerates triangles {u, v, w} of the peeled edge
// whose other two edges are both live. u is always owned (it is the
// lower endpoint); v's row comes from the local pack when owned and from
// the mapped static row (bitset-filtered) otherwise.
func (st *extState) forEachLiveTriangle(p partition, u, v int32, fn func(e1, e2 int32) error) error {
	rowU := st.localRow(p, u)
	if v >= p.vLo && v < p.vHi {
		rowV := st.localRow(p, v)
		for i, j := 0, 0; i < len(rowU) && j < len(rowV); {
			x, y := rowU[i]>>32, rowV[j]>>32
			switch {
			case x < y:
				i++
			case x > y:
				j++
			default:
				e1, e2 := int32(uint32(rowU[i])), int32(uint32(rowV[j]))
				if st.live.get(e1) && st.live.get(e2) {
					if err := fn(e1, e2); err != nil {
						return err
					}
				}
				i++
				j++
			}
		}
		return nil
	}
	nbrV, eidV := st.s.Row(v)
	for i, j := 0, 0; i < len(rowU) && j < len(nbrV); {
		x, y := int32(rowU[i]>>32), nbrV[j] //trikcheck:checked packed>>32 is a dense position
		switch {
		case x < y:
			i++
		case x > y:
			j++
		default:
			e1, e2 := int32(uint32(rowU[i])), eidV[j]
			if st.live.get(e1) && st.live.get(e2) {
				if err := fn(e1, e2); err != nil {
					return err
				}
			}
			i++
			j++
		}
	}
	return nil
}

// localRow returns the packed live row of owned vertex u.
func (st *extState) localRow(p partition, u int32) []uint64 {
	lo, hi := st.rowOff[u-p.vLo], st.rowOff[u-p.vLo+1]
	return st.rowFlat[lo:hi]
}

// suppSlice returns the reusable support scratch sized to the partition.
func (st *extState) suppSlice(p partition) []int32 {
	owned := int(p.eHi - p.eLo)
	if cap(st.suppBuf) < owned {
		st.suppBuf = make([]int32, owned)
	}
	return st.suppBuf[:owned]
}

// partOf locates the partition owning edge e by binary search over the
// partition edge ranges.
func (st *extState) partOf(e int32) int {
	lo, hi := 0, len(st.parts)
	for lo < hi {
		mid := (lo + hi) / 2
		if st.parts[mid].eHi <= e {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// noteActivation records one partition load in the stats and metrics.
func (st *extState) noteActivation(suppBytes, rowBytes, queueBytes int64) {
	st.stats.Activations++
	st.mets.activations.Inc()
	if r := suppBytes + rowBytes + queueBytes; r > st.stats.PeakResidentBytes {
		st.stats.PeakResidentBytes = r
	}
}

func minOf(a []int32) int32 {
	minK := int32(math.MaxInt32)
	for _, v := range a {
		if v < minK {
			minK = v
		}
	}
	return minK
}

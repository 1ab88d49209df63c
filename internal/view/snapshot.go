// Package view turns the mutable maintenance engine into a versioned,
// lock-free serving layer: a single-writer Publisher applies mutations to
// a dynamic.Engine and publishes immutable Snapshots through an atomic
// pointer, so any number of readers work on a consistent frozen graph +
// κ assignment without ever taking a lock or observing a half-applied
// batch.
//
// Publication protocol: all mutations funnel through the Publisher's
// writer mutex; after a mutation that effectively changed the graph (the
// engine's Version moved) the writer freezes a new Static CSR view with
// Engine.FreezeView and atomically swaps it in. No-op mutations republish
// nothing, so a snapshot pointer compares equal exactly when the graph
// state is unchanged. Readers call Acquire — one atomic load — and keep
// using the snapshot for as long as they like; it is never mutated, only
// superseded.
//
// Each Snapshot additionally carries a per-version memo of derived
// artifacts (density series, rendered SVG/ASCII plot bytes, co-clique
// values, communities at a level, a materialized Graph) with
// singleflight-style dedup: concurrent first requests for an artifact
// compute it once, and every later access is an atomic-load cache hit.
// The memo dies with the snapshot, so cache invalidation is just
// publication.
package view

import (
	"sync"

	"trikcore/internal/dynamic"
	"trikcore/internal/graph"
)

// Snapshot is one immutable published graph state: a frozen CSR view, the
// κ assignment indexed by the view's dense edge ids, the κ histogram and
// maximum, the engine's cumulative update counters at publication time,
// and the version that names all of it. All fields are read-only after
// publication; derived artifacts live in the memo.
type Snapshot struct {
	// Version is the engine change counter this snapshot was frozen at.
	// Two snapshots of one Publisher with equal versions are the same
	// snapshot; every served body derived from a snapshot is a pure
	// function of (Version, request), which is what makes version-keyed
	// ETags sound.
	Version uint64
	// S is the frozen CSR view.
	S *graph.Static
	// Kappa[i] is κ of the view's edge i.
	Kappa []int32
	// Hist[k] counts edges with κ=k; len(Hist) == MaxK+1.
	Hist []int
	// MaxK is the largest κ in the snapshot.
	MaxK int32
	// Updates are the engine's cumulative work counters at freeze time.
	Updates dynamic.Stats

	// changes is the raw change log of the batch that published this
	// snapshot (dynamic.Engine.BatchChanges), copied at freeze; the
	// KappaChanges artifact nets it.
	changes []dynamic.KappaChange

	// memo maps comparable artifact keys to *memoEntry. Reads are
	// lock-free; a miss allocates the entry and the sync.Once arbitrates
	// which caller computes.
	memo sync.Map
	// mt, when non-nil, counts memo hits and misses per artifact. Set at
	// freeze time from the publisher; nil on uninstrumented publishers.
	mt *pubMetrics
}

// memoEntry is one singleflight cell: the first Do computes, everyone
// else waits, and later calls are an atomic fast-path load.
type memoEntry struct {
	once sync.Once
	val  any
}

// Memo returns the value of compute memoized under key for this
// snapshot's lifetime. Concurrent calls with the same key compute once
// (the losers block until the winner finishes); subsequent calls return
// the cached value via atomic loads only. compute must be pure — its
// result is shared between all callers and must not be mutated.
func (sn *Snapshot) Memo(key any, compute func() any) any {
	v, ok := sn.memo.Load(key)
	if !ok {
		v, _ = sn.memo.LoadOrStore(key, new(memoEntry))
	}
	e := v.(*memoEntry)
	if sn.mt == nil {
		e.once.Do(func() { e.val = compute() })
		return e.val
	}
	computed := false
	e.once.Do(func() { e.val = compute(); computed = true })
	sn.mt.recordMemo(artifactOf(key), computed)
	return e.val
}

// NumVertices returns the snapshot's vertex count.
func (sn *Snapshot) NumVertices() int { return sn.S.NumVertices() }

// NumEdges returns the snapshot's edge count.
func (sn *Snapshot) NumEdges() int { return sn.S.NumEdges() }

// MaxCliqueProxy is the paper's clique-order estimate maxκ+2, zero on an
// edgeless graph.
func (sn *Snapshot) MaxCliqueProxy() int32 {
	if sn.NumEdges() == 0 {
		return 0
	}
	return sn.MaxK + 2
}

// KappaOf returns κ(e) and whether e is an edge of the snapshot.
func (sn *Snapshot) KappaOf(e graph.Edge) (int32, bool) {
	eid := sn.S.EdgeOf(e)
	if eid < 0 {
		return 0, false
	}
	return sn.Kappa[eid], true
}

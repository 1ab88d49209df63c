package dynamic

import (
	"trikcore/internal/core"
	"trikcore/internal/graph"
	"trikcore/internal/obs"
	"trikcore/internal/obs/trace"
)

// Serial batch stage names, the phase labels of
// trikcore_engine_batch_stage_seconds: canonicalizing the op list (sort +
// dedup by net effect), then the surviving deletions, then the surviving
// insertions.
const (
	StageCanonicalize = "canonicalize"
	StageDelete       = "delete"
	StageInsert       = "insert"
)

// Parallel epoch stage names, the phase labels of
// trikcore_engine_parallel_stage_seconds: the serial resolve pre-pass,
// region partitioning, the parallel execute phase (dispatch to epoch
// barrier), and validation + funnel merge + conflict suffix.
const (
	StageResolve   = "resolve"
	StagePartition = "partition"
	StageExecute   = "execute"
	StageMerge     = "merge"
)

// stage names one timed boundary of a batch apply: the whole serial
// batch and its three stages, or the whole parallel epoch and its four.
type stage int

const (
	stApplyBatch stage = iota
	stCanonicalize
	stDelete
	stInsert
	stApplyParallel
	stResolve
	stPartition
	stExecute
	stMerge
	numStages
)

// stageTimers describes the one timer of each stage: the flight-recorder
// span it records and the histogram family (and phase label) it feeds.
var stageTimers = [numStages]struct{ span, family, phase string }{
	stApplyBatch:    {"engine.apply_batch", "trikcore_engine_apply_batch_seconds", ""},
	stCanonicalize:  {"engine.canonicalize", batchStageSeconds, StageCanonicalize},
	stDelete:        {"engine.delete", batchStageSeconds, StageDelete},
	stInsert:        {"engine.insert", batchStageSeconds, StageInsert},
	stApplyParallel: {"engine.apply_parallel", "trikcore_engine_apply_parallel_seconds", ""},
	stResolve:       {"engine.resolve", parallelStageSeconds, StageResolve},
	stPartition:     {"engine.partition", parallelStageSeconds, StagePartition},
	stExecute:       {"engine.execute", parallelStageSeconds, StageExecute},
	stMerge:         {"engine.merge", parallelStageSeconds, StageMerge},
}

const (
	batchStageSeconds    = "trikcore_engine_batch_stage_seconds"
	parallelStageSeconds = "trikcore_engine_parallel_stage_seconds"
)

// stageHelp is the help text of each stage histogram family.
var stageHelp = map[string]string{
	"trikcore_engine_apply_batch_seconds":    "Wall time of one ApplyBatch call.",
	batchStageSeconds:                        "Wall time per ApplyBatch stage.",
	"trikcore_engine_apply_parallel_seconds": "Wall time of one ApplyBatchParallel call.",
	parallelStageSeconds:                     "Wall time per ApplyBatchParallel stage.",
}

// startStage opens the one timer of stage s: its histogram when the
// engine is instrumented, its span when tr is non-nil.
func (en *Engine) startStage(tr *trace.Trace, s stage) obs.Span {
	var h *obs.Histogram
	if en.mt != nil {
		h = en.mt.stages[s]
	}
	return obs.StartStage(h, tr, stageTimers[s].span, "engine")
}

// engineMetrics holds the engine's metric handles. A nil *engineMetrics
// (the uninstrumented default) keeps every mutation path bit-identical to
// an engine built before instrumentation existed: hooks are guarded by one
// `en.mt != nil` branch at the batch boundary, never inside the
// per-triangle funnels.
type engineMetrics struct {
	// stages[s] is the duration histogram of stage s.
	stages [numStages]*obs.Histogram

	regionsPerBatch    *obs.Histogram // regions per parallel epoch
	regionSize         *obs.Histogram // ops per region
	regionConflicts    *obs.Counter   // regions demoted to the suffix
	barrierWaitSeconds *obs.Histogram // coordinator wait at the barrier
	workerBusySeconds  *obs.Histogram // per-worker busy time per epoch

	insertsApplied *obs.Counter
	deletesApplied *obs.Counter
	opsDeduped     *obs.Counter

	promotions *obs.Counter
	demotions  *obs.Counter
	triangles  *obs.Counter
	cascade    *obs.Counter
	listings   *obs.Counter

	liveEdges      *obs.Gauge
	liveVertices   *obs.Gauge
	maxKappa       *obs.Gauge
	substrateBytes *obs.Gauge
}

// Instrument registers the engine's metric families on reg and starts
// recording. A nil registry is a no-op, leaving the engine uninstrumented.
// Instrument is not safe to call concurrently with mutations; wire it at
// construction time.
func (en *Engine) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	mt := &engineMetrics{
		regionsPerBatch: reg.Histogram("trikcore_engine_parallel_regions",
			"Affected regions per parallel epoch.", obs.CountBuckets, nil),
		regionSize: reg.Histogram("trikcore_engine_parallel_region_ops",
			"Edge operations per affected region.", obs.CountBuckets, nil),
		regionConflicts: reg.Counter("trikcore_engine_parallel_region_conflicts_total",
			"Regions whose reads overlapped earlier-merged writes and re-ran in the conflict suffix.", nil),
		barrierWaitSeconds: reg.Histogram("trikcore_engine_parallel_barrier_wait_seconds",
			"Coordinator wait at the epoch barrier, per parallel epoch.", obs.DurationBuckets, nil),
		workerBusySeconds: reg.Histogram("trikcore_engine_parallel_worker_busy_seconds",
			"Per-worker busy time per parallel epoch.", obs.DurationBuckets, nil),

		insertsApplied: reg.Counter("trikcore_engine_ops_applied_total",
			"Edge operations that changed the graph.", obs.Labels{"op": "insert"}),
		deletesApplied: reg.Counter("trikcore_engine_ops_applied_total",
			"Edge operations that changed the graph.", obs.Labels{"op": "delete"}),
		opsDeduped: reg.Counter("trikcore_engine_ops_deduped_total",
			"Batch operations collapsed away by per-edge net-effect dedup.", nil),

		promotions: reg.Counter("trikcore_engine_kappa_promotions_total",
			"Edge kappa increments applied by incremental maintenance.", nil),
		demotions: reg.Counter("trikcore_engine_kappa_demotions_total",
			"Edge kappa decrements applied by incremental maintenance.", nil),
		triangles: reg.Counter("trikcore_engine_triangles_processed_total",
			"Per-triangle update steps executed.", nil),
		cascade: reg.Counter("trikcore_engine_cascade_edges_visited_total",
			"Edges touched by candidate collection, support recomputation and cascades.", nil),
		listings: reg.Counter("trikcore_engine_triangle_listings_total",
			"Row merges run to list an edge's triangles; the per-op memo serves repeat visits.", nil),

		liveEdges: reg.Gauge("trikcore_engine_live_edges",
			"Live edges in the dense substrate.", nil),
		liveVertices: reg.Gauge("trikcore_engine_live_vertices",
			"Live vertices in the dense substrate.", nil),
		maxKappa: reg.Gauge("trikcore_engine_max_kappa",
			"Largest kappa value in the current graph.", nil),
		substrateBytes: reg.Gauge("trikcore_engine_substrate_bytes",
			"Approximate heap footprint of the dense substrate; refreshed per batch.", nil),
	}
	for s, st := range stageTimers {
		var lbl obs.Labels
		if st.phase != "" {
			lbl = obs.Labels{"phase": st.phase}
		}
		mt.stages[s] = reg.Histogram(st.family, stageHelp[st.family], obs.DurationBuckets, lbl)
	}
	en.mt = mt
	mt.syncGauges(en)
	mt.substrateBytes.Set(en.d.SizeBytes())
}

// recordDelta publishes the Stats movement since before plus the O(1)
// gauges.
func (mt *engineMetrics) recordDelta(en *Engine, before Stats) {
	after := en.stats
	mt.promotions.Add(uint64(after.Promotions - before.Promotions))
	mt.demotions.Add(uint64(after.Demotions - before.Demotions))
	mt.triangles.Add(uint64(after.TrianglesProcessed - before.TrianglesProcessed))
	mt.cascade.Add(uint64(after.EdgesVisited - before.EdgesVisited))
	mt.listings.Add(uint64(after.TriangleListings - before.TriangleListings))
	mt.syncGauges(en)
}

// syncGauges refreshes the O(1) structural gauges.
func (mt *engineMetrics) syncGauges(en *Engine) {
	mt.liveEdges.Set(int64(en.d.NumEdges()))
	mt.liveVertices.Set(int64(en.d.NumVertices()))
	mt.maxKappa.Set(int64(en.maxK))
}

// NewEngineFromDecomposition builds an engine that adopts an existing
// static decomposition instead of recomputing it, so callers that want the
// decomposition phases timed (or the Decomposition itself) can run
// core.DecomposeWith themselves and hand over the result. The
// decomposition's Static view is copied into a private dense substrate;
// NewDenseFromStatic preserves its edge ids, so κ is adopted verbatim.
func NewEngineFromDecomposition(d *core.Decomposition) *Engine {
	en := &Engine{
		d:     graph.NewDenseFromStatic(d.S),
		kappa: append([]int32(nil), d.Kappa...),
		maxK:  d.MaxKappa,
	}
	en.ser.init(en)
	en.ser.stats = &en.stats
	en.hist = make([]int, en.maxK+1)
	for _, k := range en.kappa {
		en.hist[k]++
	}
	en.ensureEdgeCap()
	en.ensureVertexCap()
	return en
}

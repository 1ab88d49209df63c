package view

import "trikcore/internal/obs"

// Artifact names used as the artifact label of the memo hit/miss counter,
// one per derived-artifact family in derived.go.
var memoArtifacts = []string{
	"co_clique",
	"co_clique_map",
	"density_series",
	"plot_svg",
	"plot_ascii",
	"graph",
	"kappa_changes",
	"communities",
	"communities_at",
	"dualview",
	"dualview_svg",
}

// pubMetrics holds the publisher's metric handles. Snapshots carry a
// pointer to it so the memo's hit/miss accounting survives across
// publications; the uninstrumented default (nil) keeps Memo's fast path
// to one extra branch.
type pubMetrics struct {
	publishSeconds  *obs.Histogram
	publishesTotal  *obs.Counter
	snapshotVersion *obs.Gauge
	memo            map[string]memoCounters
}

// memoCounters is one artifact's hit/miss counter pair, precreated at
// Instrument time so the memo read path never touches the registry lock.
type memoCounters struct {
	hit, miss *obs.Counter
}

// Instrument registers the publisher's metric families on reg and starts
// recording: publish latency, the publish counter, the snapshot-version
// gauge, and per-artifact memo hit/miss counters. It republishes the
// current state once (same version, same bytes) so the live snapshot
// carries the memo accounting. A nil registry is a no-op. Wire it at
// construction time, before the publisher starts serving.
func (p *Publisher) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	mt := &pubMetrics{
		publishSeconds: reg.Histogram("trikcore_publisher_publish_seconds",
			"Wall time to freeze and publish one snapshot.", obs.DurationBuckets, nil),
		publishesTotal: reg.Counter("trikcore_publisher_publishes_total",
			"Snapshots published.", nil),
		snapshotVersion: reg.Gauge("trikcore_publisher_snapshot_version",
			"Engine version of the currently published snapshot.", nil),
		memo: make(map[string]memoCounters, len(memoArtifacts)),
	}
	for _, a := range memoArtifacts {
		mt.memo[a] = memoCounters{
			hit: reg.Counter("trikcore_publisher_memo_requests_total",
				"Derived-artifact memo lookups by outcome.", obs.Labels{"artifact": a, "result": "hit"}),
			miss: reg.Counter("trikcore_publisher_memo_requests_total",
				"Derived-artifact memo lookups by outcome.", obs.Labels{"artifact": a, "result": "miss"}),
		}
	}
	p.mu.Lock()
	p.mt = mt
	p.cur.Store(p.freeze(nil))
	p.mu.Unlock()
}

// recordMemo counts one memo lookup. computed reports whether this call
// ran the compute function (a miss) or found the value cached (a hit).
func (mt *pubMetrics) recordMemo(artifact string, computed bool) {
	c, ok := mt.memo[artifact]
	if !ok {
		return
	}
	if computed {
		c.miss.Inc()
	} else {
		c.hit.Inc()
	}
}

// artifactOf maps a memo key to its artifact label. Every key type in
// derived.go appears here; unknown keys fall through to "other", which
// has no counters and is dropped by recordMemo.
func artifactOf(key any) string {
	switch k := key.(type) {
	case memoKey:
		switch k {
		case keyCoClique:
			return "co_clique"
		case keyCoCliqueMap:
			return "co_clique_map"
		case keySeries:
			return "density_series"
		case keyPlotSVG:
			return "plot_svg"
		case keyPlotASCII:
			return "plot_ascii"
		case keyGraph:
			return "graph"
		case keyKappaChanges:
			return "kappa_changes"
		}
	case commsKey:
		return "communities"
	case commListKey:
		return "communities_at"
	case dualKey:
		return "dualview"
	case dualSVGKey:
		return "dualview_svg"
	}
	return "other"
}

package view

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"trikcore/internal/dynamic"
	"trikcore/internal/graph"
	"trikcore/internal/obs"
	"trikcore/internal/obs/trace"
	"trikcore/internal/watchdog"
)

// Publisher owns a dynamic engine and publishes immutable Snapshots of
// it. It is the single-writer funnel of the serving layer: every
// mutation goes through the writer mutex, every read goes through
// Acquire — one atomic pointer load, no lock, ever.
type Publisher struct {
	mu  sync.Mutex
	en  *dynamic.Engine // trikcheck:guardedby mu
	cur atomic.Pointer[Snapshot]
	// workers is the worker count every batch applies with (see
	// SetWorkers). Guarded by mu like the engine itself.
	workers int // trikcheck:guardedby mu
	// mt, when non-nil (see Instrument), records publish latency and
	// counts; published snapshots carry it for memo accounting.
	mt *pubMetrics // trikcheck:guardedby mu
}

// NewPublisher wraps an engine, taking ownership of it: the caller must
// not mutate en directly afterwards (use ApplyContext), or published
// snapshots would silently go stale. The initial state is published
// immediately.
func NewPublisher(en *dynamic.Engine) *Publisher {
	p := &Publisher{en: en}
	p.cur.Store(p.freeze(nil))
	return p
}

// NewPublisherFromGraph builds the engine too (initial decomposition via
// Algorithm 1) and publishes the result.
func NewPublisherFromGraph(g *graph.Graph) *Publisher {
	return NewPublisher(dynamic.NewEngine(g))
}

// Acquire returns the current snapshot: one atomic load. The snapshot
// stays valid (immutable) indefinitely; hold it for as long as a
// consistent view is needed and re-Acquire for freshness.
func (p *Publisher) Acquire() *Snapshot { return p.cur.Load() }

// SetWorkers sets the worker count every batch applies with: n > 1 runs
// the engine's parallel epoch path with n workers, n <= 1 the serial
// path. Both leave identical engine state, edge numbering included, so
// snapshots are identical at every n and this is purely a throughput
// knob for multi-core hosts.
func (p *Publisher) SetWorkers(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.workers = n
}

// Apply is ApplyContext with no trace and no check.
func (p *Publisher) Apply(ops []dynamic.EdgeOp) (added, removed int) {
	added, removed, _ = p.ApplyContext(context.Background(), ops, nil)
	return added, removed
}

// ApplyContext is the publisher's write path. Under the writer mutex it
// runs check, when non-nil, against the live engine — an error rejects
// the batch with nothing applied and is returned as is — then applies
// the batch with the publisher's worker count and, if it effectively
// changed the graph, freezes and publishes a new snapshot before
// returning. Concurrent writers serialize; readers are never blocked. A
// flight-recorder trace carried by ctx receives the publisher.apply and
// publisher.publish spans and, through ctx, the engine's stage spans.
// Like ApplyBatch it panics on self-loop ops, with the engine untouched.
func (p *Publisher) ApplyContext(ctx context.Context, ops []dynamic.EdgeOp, check func(*dynamic.Engine) error) (added, removed int, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	defer watchdog.Start("view.Publisher.Apply")()
	tr := trace.FromContext(ctx)
	defer tr.StartSpan("publisher.apply", "view").End()
	if check != nil {
		if err = check(p.en); err != nil {
			return 0, 0, err
		}
	}
	before := p.en.Version()
	added, removed = p.en.ApplyBatchContext(ctx, ops, p.workers)
	if p.en.Version() != before {
		p.cur.Store(p.freeze(tr))
	}
	return added, removed, nil
}

// freeze builds a Snapshot of the engine's current state. Callers hold
// mu (or are the constructor, before the Publisher escapes). One stage
// timer feeds the publish-latency histogram and, when tr is non-nil, the
// publisher.publish span.
//
//trikcheck:locked
func (p *Publisher) freeze(tr *trace.Trace) *Snapshot {
	var h *obs.Histogram
	if p.mt != nil {
		h = p.mt.publishSeconds
	}
	sp := obs.StartStage(h, tr, "publisher.publish", "view")
	s, kappa := p.en.FreezeView()
	sn := &Snapshot{
		Version: p.en.Version(),
		S:       s,
		Kappa:   kappa,
		Hist:    p.en.KappaCounts(),
		MaxK:    p.en.MaxKappa(),
		Updates: p.en.Stats(),
		changes: slices.Clone(p.en.BatchChanges()),
		mt:      p.mt,
	}
	sp.End()
	if p.mt != nil {
		p.mt.publishesTotal.Inc()
		p.mt.snapshotVersion.Set(int64(sn.Version))
	}
	return sn
}

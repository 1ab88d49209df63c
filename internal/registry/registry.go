// Package registry generalizes the serving stack from "one server = one
// graph" to named graph spaces: a concurrency-safe Registry maps tenant
// names to per-graph view.Publisher instances with lifecycle
// (create/get/list/delete), per-graph resource quotas enforced at the
// write funnel, a global cap on the number of hosted graphs, and a
// per-graph change feed that turns each snapshot publication into κ
// promotion/demotion and template-pattern events (see feed.go).
//
// A Space is one hosted graph: its Publisher (the single-writer snapshot
// pipeline of internal/view), its bookmark slot (the POST /snapshot
// surface, now per graph), its Feed, and its quota configuration. All
// mutations go through Space.ApplyContext, which checks quotas against
// the live engine under the writer lock — a rejected batch provably
// mutates nothing — and hands every effective publication to the feed as
// a (previous, current) snapshot pair.
//
// Per-graph metrics land on the shared obs registry under a `graph`
// label whose distinct-value set is bounded by an obs.LabelCap: the
// first DefaultMaxGraphLabels names keep their own series, later ones
// share the "_other" overflow bucket, so a tenant churning through graph
// names cannot grow the /metrics exposition without limit.
package registry

import (
	"context"
	"errors"
	"fmt"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"

	"trikcore/internal/dynamic"
	"trikcore/internal/graph"
	"trikcore/internal/obs"
	"trikcore/internal/obs/trace"
	"trikcore/internal/view"
	"trikcore/internal/watchdog"
)

// DefaultGraph is the space the legacy unprefixed HTTP routes alias, so
// a pre-tenancy client keeps talking to the same graph it always did.
const DefaultGraph = "default"

// Lifecycle and naming errors. Create/Delete return these wrapped with
// the offending name; match with errors.Is.
var (
	ErrExists       = errors.New("graph already exists")
	ErrNotFound     = errors.New("graph not found")
	ErrInvalidName  = errors.New("invalid graph name")
	ErrRegistryFull = errors.New("graph limit reached")
	ErrClosed       = errors.New("registry closed")
)

// nameRe admits DNS-label-like graph names: leading alphanumeric, then
// alphanumerics, dot, underscore or dash, at most 64 runes. The leading
// alphanumeric keeps every valid name distinct from the obs.Overflow
// bucket ("_other") by construction.
var nameRe = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9._-]{0,63}$`)

// ValidName reports whether name is an acceptable graph name.
func ValidName(name string) bool { return nameRe.MatchString(name) }

// Quotas bound one graph space. Zero fields are unlimited.
type Quotas struct {
	// MaxVertices and MaxEdges cap the graph size after a batch; a batch
	// that would exceed either is rejected atomically (nothing applied).
	MaxVertices int
	MaxEdges    int
	// MaxBodyBytes caps one HTTP write body. It is enforced at the HTTP
	// funnel (http.MaxBytesReader), not here; the registry only carries
	// the configured value to the handler layer.
	MaxBodyBytes int64
}

// QuotaError reports a rejected batch: applying it would have driven
// Resource from Have to Want, past Limit. The server layer maps it to a
// structured 429.
type QuotaError struct {
	Resource string // "vertices" or "edges"
	Limit    int
	Have     int
	Want     int
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("quota exceeded: batch would grow %s from %d to %d, limit %d",
		e.Resource, e.Have, e.Want, e.Limit)
}

// Config parameterizes a Registry. The zero value hosts up to
// DefaultMaxGraphs unquoted graphs with serial write application and no
// instrumentation.
type Config struct {
	// MaxGraphs caps how many spaces may exist at once (0 = DefaultMaxGraphs,
	// negative = unlimited).
	MaxGraphs int
	// Quotas apply to every space the registry creates.
	Quotas Quotas
	// Workers is each space's publisher worker count (see
	// view.Publisher.SetWorkers): > 1 applies batches on the engine's
	// parallel path (snapshots are byte-identical at any setting).
	Workers int
	// Registry, when non-nil, receives per-graph metrics under a
	// `graph` label bounded to DefaultMaxGraphLabels values.
	Registry *obs.Registry
}

const (
	// DefaultMaxGraphs is the space cap when Config.MaxGraphs is zero.
	DefaultMaxGraphs = 64
	// DefaultMaxGraphLabels bounds the distinct `graph` label values;
	// later names share obs.Overflow.
	DefaultMaxGraphLabels = 32
	// DefaultFeedCapacity is each space's event ring size: subscribers
	// more than this many events behind a resume point lose the evicted
	// prefix.
	DefaultFeedCapacity = 1024
)

// Registry is the concurrency-safe name → Space map. The zero value is
// not usable; call New.
type Registry struct {
	mu     sync.Mutex
	cfg    Config
	spaces map[string]*Space // trikcheck:guardedby mu
	closed bool              // trikcheck:guardedby mu

	labelCap *obs.LabelCap
	graphs   *obs.Gauge // current space count
	created  *obs.Counter
	deleted  *obs.Counter
}

// New builds an empty registry. Callers that want the legacy-compatible
// layout create the DefaultGraph space themselves (see server.NewWith).
func New(cfg Config) *Registry {
	if cfg.MaxGraphs == 0 {
		cfg.MaxGraphs = DefaultMaxGraphs
	}
	r := &Registry{cfg: cfg, spaces: make(map[string]*Space)}
	if cfg.Registry != nil {
		r.labelCap = obs.NewLabelCap(DefaultMaxGraphLabels)
		r.graphs = cfg.Registry.Gauge("trikcore_registry_graphs",
			"Graph spaces currently hosted.", nil)
		r.created = cfg.Registry.Counter("trikcore_registry_graphs_created_total",
			"Graph spaces created over the registry's lifetime.", nil)
		r.deleted = cfg.Registry.Counter("trikcore_registry_graphs_deleted_total",
			"Graph spaces deleted over the registry's lifetime.", nil)
	}
	return r
}

// Quotas returns the per-graph quota configuration.
func (r *Registry) Quotas() Quotas { return r.cfg.Quotas }

// Create builds a new space named name over a copy of g (nil for an
// empty graph), running the initial decomposition, and registers it.
func (r *Registry) Create(name string, g *graph.Graph) (*Space, error) {
	if g == nil {
		g = graph.New()
	}
	if !ValidName(name) {
		return nil, fmt.Errorf("%w: %q", ErrInvalidName, name)
	}
	// Reserve the slot before the (possibly expensive) decomposition so
	// two racing creates of one name cannot both pay for it; the loser
	// fails fast on the reservation.
	if err := r.reserve(name); err != nil {
		return nil, err
	}
	if q := r.cfg.Quotas; q.MaxEdges > 0 && g.NumEdges() > q.MaxEdges {
		r.unreserve(name)
		return nil, &QuotaError{Resource: "edges", Limit: q.MaxEdges, Want: g.NumEdges()}
	} else if q.MaxVertices > 0 && g.NumVertices() > q.MaxVertices {
		r.unreserve(name)
		return nil, &QuotaError{Resource: "vertices", Limit: q.MaxVertices, Want: g.NumVertices()}
	}
	sp := r.newSpace(name, view.NewPublisherFromGraph(g))
	r.commit(name, sp)
	return sp, nil
}

// Adopt registers a space over an already-built publisher — the path the
// server uses for its instrumented default graph. The caller must not
// mutate the publisher's engine directly afterwards.
func (r *Registry) Adopt(name string, pub *view.Publisher) (*Space, error) {
	if !ValidName(name) {
		return nil, fmt.Errorf("%w: %q", ErrInvalidName, name)
	}
	if err := r.reserve(name); err != nil {
		return nil, err
	}
	sp := r.newSpace(name, pub)
	r.commit(name, sp)
	return sp, nil
}

// reserve claims name under the lock, leaving a nil placeholder so the
// count and uniqueness checks see it.
func (r *Registry) reserve(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	if _, ok := r.spaces[name]; ok {
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	if r.cfg.MaxGraphs > 0 && len(r.spaces) >= r.cfg.MaxGraphs {
		return fmt.Errorf("%w (%d)", ErrRegistryFull, r.cfg.MaxGraphs)
	}
	r.spaces[name] = nil
	return nil
}

func (r *Registry) unreserve(name string) {
	r.mu.Lock()
	delete(r.spaces, name)
	r.mu.Unlock()
}

// commit replaces the reservation with the built space. A create that
// committed after Close won the reservation before the registry closed;
// its feed is closed here so no subscriber can outlive Close.
func (r *Registry) commit(name string, sp *Space) {
	r.mu.Lock()
	closed := r.closed
	r.spaces[name] = sp
	r.graphs.Set(int64(len(r.spaces)))
	r.mu.Unlock()
	if closed {
		sp.close()
	}
	r.created.Inc()
	sp.syncSizeMetrics(sp.Acquire())
}

// newSpace wires one space: publisher (with the configured worker
// count), feed, and labeled metric handles.
func (r *Registry) newSpace(name string, pub *view.Publisher) *Space {
	pub.SetWorkers(r.cfg.Workers)
	sp := &Space{
		name:   name,
		pub:    pub,
		quotas: r.cfg.Quotas,
		feed:   newFeed(),
	}
	if reg := r.cfg.Registry; reg != nil {
		lbl := obs.Labels{"graph": r.labelCap.Value(name)}
		sp.mt = spaceMetrics{
			edges: reg.Gauge("trikcore_graph_edges",
				"Edges in the graph's published snapshot.", lbl),
			vertices: reg.Gauge("trikcore_graph_vertices",
				"Vertices in the graph's published snapshot.", lbl),
			publishes: reg.Counter("trikcore_graph_publishes_total",
				"Snapshots published per graph.", lbl),
			quotaRejections: reg.Counter("trikcore_graph_quota_rejections_total",
				"Write batches rejected by quota per graph.", lbl),
			events: reg.Counter("trikcore_graph_feed_events_total",
				"Change-feed events recorded per graph.", lbl),
			subscribers: reg.Gauge("trikcore_graph_subscribers",
				"Live change-feed subscribers per graph.", lbl),
		}
		sp.feed.subsGauge = sp.mt.subscribers
	}
	return sp
}

// Get returns the space named name.
func (r *Registry) Get(name string) (*Space, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sp, ok := r.spaces[name]
	if !ok || sp == nil { // nil = reservation mid-create
		return nil, false
	}
	return sp, true
}

// List returns the hosted graph names, sorted.
func (r *Registry) List() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.spaces))
	for name, sp := range r.spaces {
		if sp != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// Len returns the number of hosted spaces.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spaces)
}

// Delete removes the space named name and closes its feed, terminating
// every live subscriber. The space's snapshots stay valid for readers
// that already acquired them; the name becomes immediately reusable.
func (r *Registry) Delete(name string) error {
	r.mu.Lock()
	sp, ok := r.spaces[name]
	if !ok || sp == nil {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	delete(r.spaces, name)
	r.graphs.Set(int64(len(r.spaces)))
	r.mu.Unlock()
	r.deleted.Inc()
	sp.close()
	return nil
}

// Close shuts every space's feed down and rejects further creates — the
// graceful-shutdown hook: closing feeds unblocks all SSE handlers so
// http.Server.Shutdown can drain.
func (r *Registry) Close() {
	defer watchdog.Start("registry.Registry.Close")()
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	names := make([]string, 0, len(r.spaces))
	for name := range r.spaces {
		names = append(names, name)
	}
	sort.Strings(names) // close feeds in stable order
	spaces := make([]*Space, 0, len(names))
	for _, name := range names {
		if sp := r.spaces[name]; sp != nil {
			spaces = append(spaces, sp)
		}
	}
	r.mu.Unlock()
	for _, sp := range spaces {
		sp.close()
	}
}

// spaceMetrics is one space's labeled handle set; the zero value (all
// nil handles) is the uninstrumented no-op configuration.
type spaceMetrics struct {
	edges           *obs.Gauge
	vertices        *obs.Gauge
	publishes       *obs.Counter
	quotaRejections *obs.Counter
	events          *obs.Counter
	subscribers     *obs.Gauge
}

// Space is one hosted graph: a named publisher with quotas, a per-graph
// bookmark slot and a change feed.
type Space struct {
	name string
	pub  *view.Publisher
	// wmu serializes quota-checked writes so the feed always sees
	// contiguous (previous, current) snapshot pairs; readers never take
	// it (Acquire stays one atomic load).
	wmu    sync.Mutex
	quotas Quotas
	feed   *Feed
	// bookmark is the snapshot pinned by POST /snapshot for this graph;
	// nil until the first bookmark.
	bookmark atomic.Pointer[view.Snapshot]
	mt       spaceMetrics
}

// Name returns the space's registered name.
func (sp *Space) Name() string { return sp.name }

// Publisher exposes the underlying publisher for callers that need the
// full view API. Quota enforcement and the change feed only cover Space
// writes; direct publisher writes bypass them.
func (sp *Space) Publisher() *view.Publisher { return sp.pub }

// Feed returns the space's change feed.
func (sp *Space) Feed() *Feed { return sp.feed }

// Acquire returns the current published snapshot: one atomic load.
func (sp *Space) Acquire() *view.Snapshot { return sp.pub.Acquire() }

// Bookmark returns the pinned snapshot, or nil.
func (sp *Space) Bookmark() *view.Snapshot { return sp.bookmark.Load() }

// SetBookmark pins sn as the graph's bookmark.
func (sp *Space) SetBookmark(sn *view.Snapshot) { sp.bookmark.Store(sn) }

// MaxBodyBytes returns the per-request write body cap for this space
// (0 = the caller's default).
func (sp *Space) MaxBodyBytes() int64 { return sp.quotas.MaxBodyBytes }

// Apply is ApplyContext untraced.
func (sp *Space) Apply(ops []dynamic.EdgeOp) (added, removed int, err error) {
	return sp.ApplyContext(context.Background(), ops)
}

// ApplyContext applies one batch of edge operations with quota
// enforcement. The check runs as the publisher's check callback, against
// the live engine under the writer lock, and is exact: it overlays the
// batch (last op per edge wins, the ApplyBatch contract) over current
// membership and counts the final vertex and edge deltas, so a rejected
// batch has provably touched nothing — no partial application, no
// snapshot, no version bump. On success the effective change (if any)
// is published and handed to the feed. A flight-recorder trace carried
// by ctx spans the whole call and rides on into the publisher and the
// engine.
func (sp *Space) ApplyContext(ctx context.Context, ops []dynamic.EdgeOp) (added, removed int, err error) {
	sp.wmu.Lock()
	defer sp.wmu.Unlock()
	defer watchdog.Start("registry.Space.Apply")()
	tr := trace.FromContext(ctx)
	defer tr.StartSpan("space.apply", "registry").End()
	prev := sp.pub.Acquire()
	added, removed, err = sp.pub.ApplyContext(ctx, ops, func(en *dynamic.Engine) error {
		return sp.quotas.check(en, ops)
	})
	if err != nil {
		sp.mt.quotaRejections.Inc()
		return 0, 0, err
	}
	if cur := sp.pub.Acquire(); cur != prev {
		sp.mt.publishes.Inc()
		sp.syncSizeMetrics(cur)
		fsp := tr.StartSpan("feed.publish", "registry")
		if n := sp.feed.publish(prev, cur); n > 0 {
			sp.mt.events.Add(uint64(n))
		}
		fsp.End()
	}
	return added, removed, nil
}

// syncSizeMetrics refreshes the size gauges from sn.
func (sp *Space) syncSizeMetrics(sn *view.Snapshot) {
	sp.mt.edges.Set(int64(sn.NumEdges()))
	sp.mt.vertices.Set(int64(sn.NumVertices()))
}

// close shuts the feed down (idempotent).
func (sp *Space) close() { sp.feed.Close() }

// check verifies ops against q on the live engine. It mirrors the
// ApplyBatch dedup contract — the last op naming an edge wins, and edge
// deletion never removes vertices — so the computed final counts equal
// what applying the batch would produce.
func (q Quotas) check(en *dynamic.Engine, ops []dynamic.EdgeOp) error {
	if q.MaxVertices <= 0 && q.MaxEdges <= 0 {
		return nil
	}
	final := make(map[graph.Edge]bool, len(ops))
	for _, op := range ops {
		final[graph.NewEdge(op.U, op.V)] = !op.Del
	}
	edgeDelta := 0
	newVerts := make(map[graph.Vertex]bool)
	for e, present := range final {
		was := en.HasEdge(e.U, e.V)
		switch {
		case present && !was:
			edgeDelta++
			for _, v := range [2]graph.Vertex{e.U, e.V} {
				if !en.HasVertex(v) {
					newVerts[v] = true
				}
			}
		case !present && was:
			edgeDelta--
		}
	}
	if want := en.NumEdges() + edgeDelta; q.MaxEdges > 0 && want > q.MaxEdges {
		return &QuotaError{Resource: "edges", Limit: q.MaxEdges, Have: en.NumEdges(), Want: want}
	}
	if want := en.NumVertices() + len(newVerts); q.MaxVertices > 0 && want > q.MaxVertices {
		return &QuotaError{Resource: "vertices", Limit: q.MaxVertices, Have: en.NumVertices(), Want: want}
	}
	return nil
}

package registry

import (
	"encoding/json"
	"sync"

	"trikcore/internal/graph"
	"trikcore/internal/obs"
	"trikcore/internal/template"
	"trikcore/internal/view"
	"trikcore/internal/watchdog"
)

// The change feed turns snapshot publications into a totally ordered
// event stream. Every published snapshot carries the change log of the
// batch that produced it: each κ transition the engine's funnel fired,
// keyed by external edge. Netted, that log is exactly the κ diff between
// the previous snapshot and the new one, so a publication's events cost
// O(batch), not O(|E|), and they inherit the snapshots' determinism:
// identical publish sequences yield identical event bytes, at any worker
// count.
//
// Event kinds:
//
//   - "kappa": one edge's κ changed. Promotions cover edges whose κ
//     rose and edges that appeared (from = -1); demotions cover edges
//     whose κ fell and edges that vanished (to = -1).
//   - "pattern": a template-pattern clique (New Form / Bridge / New
//     Join, Algorithm 4) detected in the new snapshot, reported with its
//     vertex set and co-clique height. Every characteristic triangle of
//     the three templates holds at least two new edges, so Algorithm 4
//     lists only the triangles on the batch's inserted edges; the density
//     plot that picks the top cliques stays global, and runs only for a
//     template that found a characteristic triangle.
//
// Events carry monotonically increasing ids, assigned in canonical
// order (κ events sorted by edge, then pattern events by pattern and
// vertex set) within each publication. A bounded ring retains the most
// recent events so a reconnecting subscriber can resume from its
// Last-Event-ID; older events are evicted oldest-first.
//
// The feed arms itself on the first subscription and then records every
// publication permanently — rendering events before the first
// subscriber would tax every write of every graph that no one is
// watching, while stopping when the last subscriber disconnects would
// tear a hole in the id sequence that Last-Event-ID resume could not see.

// Event kind names, used as the SSE `event:` field.
const (
	KindKappa   = "kappa"
	KindPattern = "pattern"
)

// κ event type names.
const (
	TypePromote = "promote"
	TypeDemote  = "demote"
)

// KappaAbsent marks "edge not present" in a κ event's From/To field.
const KappaAbsent = int32(-1)

// Event is one rendered change-feed entry: the monotone id, the SSE
// event kind, and the payload bytes (JSON, rendered once at publish
// time and shared by every subscriber).
type Event struct {
	ID   uint64
	Kind string
	Data []byte
}

// KappaEvent is the payload of a "kappa" event.
type KappaEvent struct {
	ID      uint64       `json:"id"`
	Version uint64       `json:"version"`
	Type    string       `json:"type"` // promote | demote
	U       graph.Vertex `json:"u"`
	V       graph.Vertex `json:"v"`
	From    int32        `json:"from"` // -1: edge was absent
	To      int32        `json:"to"`   // -1: edge was removed
}

// PatternEvent is the payload of a "pattern" event.
type PatternEvent struct {
	ID       uint64         `json:"id"`
	Version  uint64         `json:"version"`
	Type     string         `json:"type"`    // always "pattern"
	Pattern  string         `json:"pattern"` // new-form | bridge | new-join
	Height   int            `json:"height"`  // co-clique height of the detected clique
	Vertices []graph.Vertex `json:"vertices"`
}

// Pattern reporting bounds: per publication each template reports at
// most feedTopCliques cliques of at least feedMinWidth vertices — the
// same top-3 selection the paper's figures circle.
const (
	feedTopCliques = 3
	feedMinWidth   = 3
)

// Feed is one space's event hub: the bounded ring of recent events plus
// the live subscriber set. All methods are safe for concurrent use.
type Feed struct {
	mu     sync.Mutex
	armed  bool                     // trikcheck:guardedby mu
	closed bool                     // trikcheck:guardedby mu
	nextID uint64                   // trikcheck:guardedby mu — id the next event will get; ids start at 1
	ring   []Event                  // trikcheck:guardedby mu
	subs   map[*Subscriber]struct{} // trikcheck:guardedby mu
	// subsGauge is set once in newSpace before the feed escapes;
	// immutable thereafter.
	subsGauge *obs.Gauge
}

// subscriberBuffer is each subscriber's channel depth, counted in
// publications: one write's events travel as one element however many
// there are. A consumer that falls more than this many publications
// behind while the feed keeps publishing is dropped (Done closes) rather
// than allowed to backpressure the write path.
const subscriberBuffer = 64

// Subscriber is one live feed consumer.
type Subscriber struct {
	// C delivers each publication's events as one slice, in id order.
	// The slice is shared with other subscribers and must not be
	// modified. C is never closed; watch Done.
	C <-chan []Event
	// Done closes when the subscriber is dropped (slow consumer), the
	// feed closes (graph deleted or server shutting down), or
	// Unsubscribe is called.
	Done <-chan struct{}

	ch   chan []Event
	done chan struct{}
	feed *Feed
}

func newFeed() *Feed {
	return &Feed{subs: make(map[*Subscriber]struct{})}
}

// Subscribe registers a consumer, arming the feed if this is its first
// ever subscriber. It returns the retained events with id > lastID (the
// Last-Event-ID resume path; pass 0 for "from now on") and the live
// subscriber. On a closed feed the subscriber's Done is already closed.
func (f *Feed) Subscribe(lastID uint64) ([]Event, *Subscriber) {
	sub := &Subscriber{
		ch:   make(chan []Event, subscriberBuffer),
		done: make(chan struct{}),
		feed: f,
	}
	sub.C, sub.Done = sub.ch, sub.done

	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		close(sub.done)
		return nil, sub
	}
	f.armed = true
	var replay []Event
	for _, ev := range f.ring {
		if ev.ID > lastID {
			replay = append(replay, ev)
		}
	}
	f.subs[sub] = struct{}{}
	f.subsGauge.Set(int64(len(f.subs)))
	return replay, sub
}

// Unsubscribe removes sub and closes its Done. Idempotent.
func (f *Feed) Unsubscribe(sub *Subscriber) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.dropLocked(sub)
}

// dropLocked removes sub and closes its Done; every caller holds f.mu.
//
//trikcheck:locked
func (f *Feed) dropLocked(sub *Subscriber) {
	if _, ok := f.subs[sub]; !ok {
		return
	}
	delete(f.subs, sub)
	f.subsGauge.Set(int64(len(f.subs)))
	close(sub.done)
}

// Armed reports whether the feed has ever had a subscriber (and so
// records publications).
func (f *Feed) Armed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.armed
}

// LastID returns the id of the most recently recorded event (0 before
// the first).
func (f *Feed) LastID() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.nextID
}

// Close terminates every subscriber and stops recording. Idempotent.
func (f *Feed) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.closed = true
	for sub := range f.subs {
		close(sub.done)
	}
	f.subs = make(map[*Subscriber]struct{})
	f.subsGauge.Set(0)
}

// publish renders the events of the batch that took prev to cur,
// records them and fans them out to live subscribers as one channel
// element, returning how many events were recorded. cur must be the
// snapshot published by the batch applied to prev. A subscriber whose
// buffer is full is dropped on the spot: the feed never blocks the write
// path on a slow consumer.
func (f *Feed) publish(prev, cur *view.Snapshot) int {
	defer watchdog.Start("registry.Feed.publish")()
	f.mu.Lock()
	if !f.armed || f.closed {
		f.mu.Unlock()
		return 0
	}
	f.mu.Unlock()

	// Rendering runs outside the lock; Space.wmu already serializes
	// publications, so id assignment below stays in order.
	evs := batchEvents(prev, cur, f.peekNextID())
	if len(evs) == 0 {
		return 0
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0
	}
	f.nextID += uint64(len(evs))
	f.ring = append(f.ring, evs...)
	if excess := len(f.ring) - DefaultFeedCapacity; excess > 0 {
		f.ring = append(f.ring[:0], f.ring[excess:]...)
	}
	for sub := range f.subs {
		select {
		case sub.ch <- evs:
		default:
			f.dropLocked(sub)
		}
	}
	return len(evs)
}

// peekNextID returns the id the next event will receive.
func (f *Feed) peekNextID() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.nextID + 1
}

// batchEvents renders the canonical event list for the prev → cur
// publication, assigning ids from firstID. κ events come first, sorted
// by external edge; pattern events follow in fixed template order.
// Everything is a pure function of cur's change log and, for vertex
// novelty, prev's vertex set, which is what makes the feed
// byte-deterministic across runs and worker counts.
func batchEvents(prev, cur *view.Snapshot, firstID uint64) []Event {
	var events []Event
	id := firstID
	push := func(kind string, payload any) {
		data, err := json.Marshal(payload)
		if err != nil {
			// Payload structs marshal by construction; a failure here is
			// a programming error, not a runtime condition.
			panic(err)
		}
		events = append(events, Event{ID: id, Kind: kind, Data: data})
		id++
	}

	// Novelty (template.Evolving over prev → cur): an edge is new when
	// the batch inserted it, a vertex when prev lacks it. Edge deletion
	// never removes a vertex and only insertions create one, so only the
	// endpoints of new edges can be new.
	var seeds []int32
	newEdges := make(map[graph.Edge]bool)
	newVerts := make(map[graph.Vertex]bool)
	for _, c := range cur.KappaChanges() {
		typ := TypePromote
		if c.To < c.From {
			typ = TypeDemote
		}
		push(KindKappa, KappaEvent{
			ID: id, Version: cur.Version, Type: typ,
			U: c.E.U, V: c.E.V, From: c.From, To: c.To,
		})
		if c.From != KappaAbsent {
			continue
		}
		newEdges[c.E] = true
		seeds = append(seeds, cur.S.EdgeOf(c.E))
		for _, v := range [2]graph.Vertex{c.E.U, c.E.V} {
			if _, ok := prev.S.Pos[v]; !ok {
				newVerts[v] = true
			}
		}
	}

	// Template-pattern detection (Algorithm 4) on the triangles of the
	// new edges: without one no template has a characteristic triangle.
	if len(seeds) == 0 {
		return events
	}
	nov := template.Novelty{
		IsNewEdge:   func(e graph.Edge) bool { return newEdges[e] },
		IsNewVertex: func(v graph.Vertex) bool { return newVerts[v] },
	}
	for _, spec := range []template.Spec{
		template.NewForm(nov), template.Bridge(nov), template.NewJoin(nov),
	} {
		res := template.DetectOn(cur.S, spec, seeds)
		if len(res.Characteristic) == 0 {
			continue
		}
		for _, pk := range res.TopCliques(feedTopCliques, feedMinWidth) {
			push(KindPattern, PatternEvent{
				ID: id, Version: cur.Version, Type: KindPattern,
				Pattern: spec.Name, Height: pk.Height, Vertices: pk.Vertices,
			})
		}
	}
	return events
}

package registry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"trikcore/internal/dynamic"
	"trikcore/internal/gen"
	"trikcore/internal/graph"
	"trikcore/internal/template"
	"trikcore/internal/view"
)

// collect drains every event currently buffered on sub.
func collect(sub *Subscriber) []Event {
	var out []Event
	for {
		select {
		case evs := <-sub.C:
			out = append(out, evs...)
		default:
			return out
		}
	}
}

func TestFeedArmsOnFirstSubscribe(t *testing.T) {
	r := New(Config{})
	sp, err := r.Create("g", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Publications before any subscriber are not recorded: nobody pays
	// for diffing a feed no one has ever watched.
	if _, _, err := sp.Apply([]dynamic.EdgeOp{add(1, 2)}); err != nil {
		t.Fatal(err)
	}
	if id := sp.Feed().LastID(); id != 0 {
		t.Fatalf("unarmed feed recorded events: LastID = %d", id)
	}
	_, sub := sp.Feed().Subscribe(0)
	defer sp.Feed().Unsubscribe(sub)
	if _, _, err := sp.Apply([]dynamic.EdgeOp{add(2, 3)}); err != nil {
		t.Fatal(err)
	}
	evs := collect(sub)
	if len(evs) != 1 || evs[0].ID != 1 || evs[0].Kind != KindKappa {
		t.Fatalf("events after arming = %+v", evs)
	}
	// Armed is permanent: with zero live subscribers the feed keeps
	// recording, so a reconnect can resume without a gap.
	sp.Feed().Unsubscribe(sub)
	if _, _, err := sp.Apply([]dynamic.EdgeOp{add(3, 4)}); err != nil {
		t.Fatal(err)
	}
	if id := sp.Feed().LastID(); id != 2 {
		t.Fatalf("armed feed stopped recording: LastID = %d", id)
	}
}

func TestFeedKappaEventShape(t *testing.T) {
	r := New(Config{})
	sp, err := r.Create("g", nil)
	if err != nil {
		t.Fatal(err)
	}
	_, sub := sp.Feed().Subscribe(0)
	defer sp.Feed().Unsubscribe(sub)

	// A fresh triangle: three promote events, sorted by edge, κ -1 → 1.
	if _, _, err := sp.Apply([]dynamic.EdgeOp{add(21, 22), add(20, 21), add(20, 22)}); err != nil {
		t.Fatal(err)
	}
	evs := collect(sub)
	if len(evs) < 3 {
		t.Fatalf("got %d events, want >= 3", len(evs))
	}
	wantEdges := [][2]graph.Vertex{{20, 21}, {20, 22}, {21, 22}}
	version := sp.Acquire().Version
	for i, want := range wantEdges {
		var ke KappaEvent
		if err := json.Unmarshal(evs[i].Data, &ke); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if ke.ID != uint64(i+1) || ke.Version != version || ke.Type != TypePromote ||
			ke.U != want[0] || ke.V != want[1] || ke.From != KappaAbsent || ke.To != 1 {
			t.Fatalf("event %d = %+v, want promote %v -1→1", i, ke, want)
		}
	}

	// Removing one edge demotes the other two (κ 1 → 0) and demotes the
	// removed edge to absent.
	if _, _, err := sp.Apply([]dynamic.EdgeOp{del(20, 21)}); err != nil {
		t.Fatal(err)
	}
	evs = collect(sub)
	if len(evs) != 3 {
		t.Fatalf("got %d demotion events, want 3: %+v", len(evs), evs)
	}
	var gone KappaEvent
	if err := json.Unmarshal(evs[0].Data, &gone); err != nil {
		t.Fatal(err)
	}
	if gone.Type != TypeDemote || gone.U != 20 || gone.V != 21 || gone.To != KappaAbsent {
		t.Fatalf("removal event = %+v", gone)
	}
}

func TestFeedPatternEvents(t *testing.T) {
	// Seed: a 6-cycle — original vertices, no triangles.
	seed := graph.New()
	for i := graph.Vertex(0); i < 6; i++ {
		seed.AddEdge(i, (i+1)%6)
	}
	r := New(Config{})
	sp, err := r.Create("g", seed)
	if err != nil {
		t.Fatal(err)
	}
	_, sub := sp.Feed().Subscribe(0)
	defer sp.Feed().Unsubscribe(sub)

	// Chords among the original vertices form a triangle of entirely new
	// edges — the paper's New Form pattern (Figure 4a).
	ops := []dynamic.EdgeOp{add(0, 2), add(2, 4), add(0, 4)}
	if _, _, err := sp.Apply(ops); err != nil {
		t.Fatal(err)
	}
	var patterns []PatternEvent
	for _, ev := range collect(sub) {
		if ev.Kind != KindPattern {
			continue
		}
		var pe PatternEvent
		if err := json.Unmarshal(ev.Data, &pe); err != nil {
			t.Fatal(err)
		}
		patterns = append(patterns, pe)
	}
	if len(patterns) == 0 {
		t.Fatal("no pattern events for a new-form triangle")
	}
	found := false
	for _, pe := range patterns {
		if pe.Pattern == "new-form" && len(pe.Vertices) == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("new-form over {0,2,4} missing: %+v", patterns)
	}
}

func TestFeedResumeAndRingEviction(t *testing.T) {
	r := New(Config{})
	sp, err := r.Create("g", nil)
	if err != nil {
		t.Fatal(err)
	}
	_, arm := sp.Feed().Subscribe(0)
	sp.Feed().Unsubscribe(arm)

	// Disjoint edges yield one event each: a first publication fills the
	// ring exactly, then six single-edge publications push the six
	// oldest events out.
	const extra = 6
	fill := make([]dynamic.EdgeOp, 0, DefaultFeedCapacity)
	for i := 0; i < DefaultFeedCapacity; i++ {
		base := graph.Vertex(10 * (i + 1))
		fill = append(fill, add(base, base+1))
	}
	if _, _, err := sp.Apply(fill); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < extra; i++ {
		base := graph.Vertex(10 * (DefaultFeedCapacity + i + 1))
		if _, _, err := sp.Apply([]dynamic.EdgeOp{add(base, base+1)}); err != nil {
			t.Fatal(err)
		}
	}
	last := uint64(DefaultFeedCapacity + extra)
	if id := sp.Feed().LastID(); id != last {
		t.Fatalf("LastID = %d, want %d", id, last)
	}
	// Resume three events back: exactly those are retained and replayed.
	replay, sub := sp.Feed().Subscribe(last - 3)
	sp.Feed().Unsubscribe(sub)
	if len(replay) != 3 || replay[0].ID != last-2 || replay[2].ID != last {
		t.Fatalf("resume from %d replayed %+v", last-3, replay)
	}
	// Resume from 0: the ring only holds the last DefaultFeedCapacity.
	replay, sub = sp.Feed().Subscribe(0)
	sp.Feed().Unsubscribe(sub)
	if len(replay) != DefaultFeedCapacity || replay[0].ID != extra+1 || replay[len(replay)-1].ID != last {
		t.Fatalf("full replay holds %d events from id %d, want %d from id %d",
			len(replay), replay[0].ID, DefaultFeedCapacity, extra+1)
	}
}

func TestFeedDropsSlowConsumer(t *testing.T) {
	r := New(Config{})
	sp, err := r.Create("g", nil)
	if err != nil {
		t.Fatal(err)
	}
	_, slow := sp.Feed().Subscribe(0)
	// Never read: once the buffer is full and another event arrives the
	// subscriber is dropped rather than allowed to stall the writer.
	for i := 0; i <= subscriberBuffer+1; i++ {
		base := graph.Vertex(100 * (i + 1))
		if _, _, err := sp.Apply([]dynamic.EdgeOp{add(base, base+1)}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-slow.Done:
	default:
		t.Fatal("slow consumer not dropped")
	}
	// The feed itself is unaffected: a fresh subscriber still works.
	_, fresh := sp.Feed().Subscribe(sp.Feed().LastID())
	defer sp.Feed().Unsubscribe(fresh)
	if _, _, err := sp.Apply([]dynamic.EdgeOp{add(1, 2)}); err != nil {
		t.Fatal(err)
	}
	if evs := collect(fresh); len(evs) != 1 {
		t.Fatalf("fresh subscriber got %d events, want 1", len(evs))
	}
}

// TestFeedDeliversBurstWhole checks that one publication's events travel
// as one buffered element: a subscriber that has not read yet receives
// all 70 events of a 70-edge write — more than subscriberBuffer — in id
// order, and is not dropped.
func TestFeedDeliversBurstWhole(t *testing.T) {
	r := New(Config{})
	sp, err := r.Create("g", nil)
	if err != nil {
		t.Fatal(err)
	}
	_, sub := sp.Feed().Subscribe(0)
	defer sp.Feed().Unsubscribe(sub)
	const n = 70
	ops := make([]dynamic.EdgeOp, 0, n)
	for i := 0; i < n; i++ {
		base := graph.Vertex(100 * (i + 1))
		ops = append(ops, add(base, base+1))
	}
	if _, _, err := sp.Apply(ops); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sub.Done:
		t.Fatal("subscriber dropped by a single publication")
	default:
	}
	evs := collect(sub)
	if len(evs) != n {
		t.Fatalf("got %d events, want %d", len(evs), n)
	}
	for i, ev := range evs {
		if ev.ID != uint64(i+1) || ev.Kind != KindKappa {
			t.Fatalf("event %d = id %d kind %s, want id %d kind %s", i, ev.ID, ev.Kind, i+1, KindKappa)
		}
	}
}

// TestFeedDeterministicAcrossWorkers pins the feed's core guarantee:
// identical publish sequences produce byte-identical event streams, at
// any worker count.
func TestFeedDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) []Event {
		r := New(Config{Workers: workers})
		sp, err := r.Create("g", k5())
		if err != nil {
			t.Fatal(err)
		}
		_, sub := sp.Feed().Subscribe(0)
		defer sp.Feed().Unsubscribe(sub)
		batches := [][]dynamic.EdgeOp{
			{add(20, 21), add(21, 22), add(20, 22), add(0, 20)},
			{del(0, 1), add(22, 23), add(20, 23), add(21, 23)},
			{del(20, 21)},
		}
		for _, ops := range batches {
			if _, _, err := sp.Apply(ops); err != nil {
				t.Fatal(err)
			}
		}
		var out []Event
		for {
			evs := collect(sub)
			if evs == nil {
				return out
			}
			out = append(out, evs...)
		}
	}
	base := run(1)
	if len(base) == 0 {
		t.Fatal("no events")
	}
	for _, workers := range []int{1, 4} {
		got := run(workers)
		if len(got) != len(base) {
			t.Fatalf("workers=%d: %d events vs %d", workers, len(got), len(base))
		}
		for i := range base {
			if got[i].ID != base[i].ID || got[i].Kind != base[i].Kind ||
				!bytes.Equal(got[i].Data, base[i].Data) {
				t.Fatalf("workers=%d event %d differs:\n%d %s %s\nvs\n%d %s %s",
					workers, i, got[i].ID, got[i].Kind, got[i].Data,
					base[i].ID, base[i].Kind, base[i].Data)
			}
		}
	}
}

func TestQuotaErrorMessage(t *testing.T) {
	qe := &QuotaError{Resource: "edges", Limit: 10, Have: 9, Want: 12}
	want := "quota exceeded: batch would grow edges from 9 to 12, limit 10"
	if got := qe.Error(); got != want {
		t.Fatalf("Error() = %q, want %q", got, want)
	}
	_ = fmt.Sprintf("%v", qe)
}

// diffEvents is the feed's first renderer, kept as the reference: a map
// over every edge of prev diffed against cur, then Algorithm 4 over both
// snapshots materialized as map graphs, with template.Evolving novelty.
func diffEvents(prev, cur *view.Snapshot, firstID uint64) []Event {
	type change struct {
		e        graph.Edge
		from, to int32
	}
	old := make(map[graph.Edge]int32, len(prev.Kappa))
	for i, k := range prev.Kappa {
		old[prev.S.EdgeAt(int32(i))] = k
	}
	var changes []change
	for i, k := range cur.Kappa {
		e := cur.S.EdgeAt(int32(i))
		if ko, ok := old[e]; ok {
			if ko != k {
				changes = append(changes, change{e, ko, k})
			}
			delete(old, e)
		} else {
			changes = append(changes, change{e, KappaAbsent, k})
		}
	}
	for e, ko := range old {
		changes = append(changes, change{e, ko, KappaAbsent})
	}
	sort.Slice(changes, func(i, j int) bool { return changes[i].e.Less(changes[j].e) })

	var events []Event
	id := firstID
	push := func(kind string, payload any) {
		data, err := json.Marshal(payload)
		if err != nil {
			panic(err)
		}
		events = append(events, Event{ID: id, Kind: kind, Data: data})
		id++
	}
	for _, c := range changes {
		typ := TypePromote
		if c.to < c.from {
			typ = TypeDemote
		}
		push(KindKappa, KappaEvent{
			ID: id, Version: cur.Version, Type: typ,
			U: c.e.U, V: c.e.V, From: c.from, To: c.to,
		})
	}
	if len(changes) > 0 {
		oldG, newG := prev.Graph(), cur.Graph()
		nov := template.Evolving(oldG, newG)
		for _, spec := range []template.Spec{
			template.NewForm(nov), template.Bridge(nov), template.NewJoin(nov),
		} {
			res := template.Detect(newG, spec)
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
	}
	return events
}

// TestFeedMatchesSnapshotDiff drives hub-skewed 8+8 churn, the watched
// benchmark's shape, through armed spaces at workers 1 and 4 and checks
// every publication's events byte for byte against the full snapshot
// diff. Every third batch also wires a fresh vertex to both ends of an
// existing edge, so New Join has something to find, and every other
// third closes a triangle of three new edges among original vertices
// (New Form), which the next batch removes again. The graphs are the
// Astro-Author 3% stand-in and two small triadic-closure graphs; across
// the run every pattern kind must fire, or the comparison would say
// nothing about pattern events.
func TestFeedMatchesSnapshotDiff(t *testing.T) {
	cases := []struct {
		name    string
		g       *graph.Graph
		batches int
	}{
		{"astro-3pct", standIn(t, "Astro-Author", 0.03), 36},
		{"triadic-150", gen.PowerLawCluster(150, 3, 0.9, 5), 30},
		{"triadic-300", gen.PowerLawCluster(300, 4, 0.7, 6), 30},
	}
	kinds := map[string]int{}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			sp, err := New(Config{Workers: workers}).Create("g", tc.g)
			if err != nil {
				t.Fatal(err)
			}
			_, sub := sp.Feed().Subscribe(0)
			rng := rand.New(rand.NewSource(int64(len(tc.name))))
			edges := tc.g.Edges()
			verts := tc.g.Vertices()
			fresh := graph.Vertex(1 << 20)
			var planted []graph.Edge
			for i, ops := range hubBatches(tc.g, rng, tc.batches, 8) {
				if i == 0 {
					ops = ops[8:] // nothing to delete yet
				}
				for _, e := range planted {
					ops = append(ops, del(e.U, e.V))
				}
				planted = planted[:0]
				switch i % 3 {
				case 0:
					e := edges[rng.Intn(len(edges))]
					ops = append(ops, add(fresh, e.U), add(fresh, e.V))
					fresh++
				case 1:
					planted = openTriangle(sp.Acquire(), verts, ops, rng)
					for _, e := range planted {
						ops = append(ops, add(e.U, e.V))
					}
				}
				prev, last := sp.Acquire(), sp.Feed().LastID()
				if _, _, err := sp.Apply(ops); err != nil {
					t.Fatal(err)
				}
				got, want := collect(sub), diffEvents(prev, sp.Acquire(), last+1)
				if len(got) != len(want) {
					t.Fatalf("%s workers=%d batch %d: %d events, reference %d", tc.name, workers, i, len(got), len(want))
				}
				for j := range want {
					if got[j].ID != want[j].ID || got[j].Kind != want[j].Kind || !bytes.Equal(got[j].Data, want[j].Data) {
						t.Fatalf("%s workers=%d batch %d event %d:\n%d %s %s\nreference\n%d %s %s", tc.name, workers, i, j,
							got[j].ID, got[j].Kind, got[j].Data, want[j].ID, want[j].Kind, want[j].Data)
					}
					if got[j].Kind == KindPattern {
						var pe PatternEvent
						if err := json.Unmarshal(got[j].Data, &pe); err != nil {
							t.Fatal(err)
						}
						kinds[pe.Pattern]++
					}
				}
			}
			sp.Feed().Unsubscribe(sub)
		}
	}
	t.Logf("pattern events by kind: %v", kinds)
	for _, k := range []string{"new-form", "bridge", "new-join"} {
		if kinds[k] == 0 {
			t.Errorf("no %s event across the run; the pattern comparison is vacuous for it", k)
		}
	}
}

// openTriangle draws three vertices of verts that are pairwise
// non-adjacent in sn and whose edges ops does not mention, and returns
// the three edges that would close them into a triangle.
func openTriangle(sn *view.Snapshot, verts []graph.Vertex, ops []dynamic.EdgeOp, rng *rand.Rand) []graph.Edge {
	busy := make(map[graph.Edge]bool, len(ops))
	for _, op := range ops {
		busy[graph.NewEdge(op.U, op.V)] = true
	}
	for {
		a, b, c := verts[rng.Intn(len(verts))], verts[rng.Intn(len(verts))], verts[rng.Intn(len(verts))]
		if a == b || b == c || a == c {
			continue
		}
		tri := []graph.Edge{graph.NewEdge(a, b), graph.NewEdge(b, c), graph.NewEdge(a, c)}
		ok := true
		for _, e := range tri {
			if _, present := sn.KappaOf(e); present || busy[e] {
				ok = false
			}
		}
		if ok {
			return tri
		}
	}
}

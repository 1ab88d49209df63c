// Package events classifies how Triangle K-Core communities evolve
// between graph snapshots: the event-detection application the paper's
// introduction motivates ("identifying the portions of the network that
// are changing, characterizing the type of change") using the taxonomy
// of Asur et al., the paper's reference [15] — continue, grow, shrink,
// merge, split, form and dissolve.
//
// Communities are the triangle-connected components of the κ ≥ k
// subgraph (core.Communities, over a decomposition, a published snapshot
// or the live engine); two snapshots' community lists are matched by
// vertex overlap and each structural change is reported as an Event.
package events

import (
	"fmt"
	"slices"
	"sort"

	"trikcore/internal/core"
	"trikcore/internal/graph"
)

// Community is one dense community of a snapshot.
type Community struct {
	// Vertices, sorted ascending.
	Vertices []graph.Vertex
	// Edges is the community's edge count.
	Edges int
}

// Type classifies a community transition.
type Type int

// Event taxonomy (Asur et al., reference [15] of the paper).
const (
	Continue Type = iota // same community, little change
	Grow                 // one community gained vertices
	Shrink               // one community lost vertices
	Merge                // several old communities fused into one
	Split                // one old community broke into several
	Form                 // a community with no past counterpart
	Dissolve             // a community with no future counterpart
)

// String names the event type.
func (t Type) String() string {
	switch t {
	case Continue:
		return "continue"
	case Grow:
		return "grow"
	case Shrink:
		return "shrink"
	case Merge:
		return "merge"
	case Split:
		return "split"
	case Form:
		return "form"
	case Dissolve:
		return "dissolve"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Event is one detected transition.
type Event struct {
	Type Type
	// Before and After index into the old and new community lists.
	Before, After []int
}

// String renders the event compactly.
func (e Event) String() string {
	return fmt.Sprintf("%s before=%v after=%v", e.Type, e.Before, e.After)
}

// Options tune the matcher.
type Options struct {
	// MatchThreshold is the minimum containment fraction
	// |old ∩ new| / min(|old|, |new|) for two communities to be related.
	// Zero means 0.5.
	MatchThreshold float64
	// StableRatio bounds the size change of a Continue event: a 1-1
	// match counts as Continue when the size ratio stays within
	// [1/StableRatio, StableRatio]. Zero means 1.25.
	StableRatio float64
}

func (o Options) normalized() Options {
	if o.MatchThreshold <= 0 {
		o.MatchThreshold = 0.5
	}
	if o.StableRatio <= 1 {
		o.StableRatio = 1.25
	}
	return o
}

// CommunitiesAt extracts the level-k communities of a snapshot; nil
// when it has none.
func CommunitiesAt(g *graph.Graph, k int32) []Community {
	return CommunitiesOf(core.Decompose(g).Communities(k))
}

// CommunitiesOf converts communities given as edge lists — the form the
// κ queries return — to vertex-set form, keeping their order. A nil
// list converts to nil, an empty one to an empty one.
func CommunitiesOf(comms [][]graph.Edge) []Community {
	if comms == nil {
		return nil
	}
	out := make([]Community, len(comms))
	for i, edges := range comms {
		out[i] = Community{Vertices: graph.VerticesOf(edges), Edges: len(edges)}
	}
	return out
}

// Detect matches two community lists and classifies every transition.
// Every old and new community appears in exactly one event.
func Detect(old, new []Community, opts Options) []Event {
	opts = opts.normalized()

	// Overlap counts via a vertex → old-community index.
	vertexOld := make(map[graph.Vertex][]int)
	for i, c := range old {
		for _, v := range c.Vertices {
			vertexOld[v] = append(vertexOld[v], i)
		}
	}
	overlap := make(map[[2]int]int) // (oldIdx, newIdx) → |∩|
	for j, c := range new {
		for _, v := range c.Vertices {
			for _, i := range vertexOld[v] {
				overlap[[2]int{i, j}]++
			}
		}
	}

	// Relation edges above the containment threshold.
	related := func(i, j int) bool {
		ov := overlap[[2]int{i, j}]
		min := len(old[i].Vertices)
		if len(new[j].Vertices) < min {
			min = len(new[j].Vertices)
		}
		return min > 0 && float64(ov) >= opts.MatchThreshold*float64(min)
	}
	oldTo := make([][]int, len(old))
	newTo := make([][]int, len(new))
	for key := range overlap {
		i, j := key[0], key[1]
		if related(i, j) {
			oldTo[i] = append(oldTo[i], j)
			newTo[j] = append(newTo[j], i)
		}
	}
	for _, s := range oldTo {
		slices.Sort(s)
	}
	for _, s := range newTo {
		slices.Sort(s)
	}

	// Classify connected groups of the relation graph. Walk each
	// component of the bipartite relation; its shape decides the event.
	var events []Event
	seenOld := make([]bool, len(old))
	seenNew := make([]bool, len(new))
	for i := range old {
		if seenOld[i] {
			continue
		}
		os, ns := component(i, oldTo, newTo, seenOld, seenNew)
		events = append(events, classify(os, ns, old, new, opts))
	}
	for j := range new {
		if !seenNew[j] {
			seenNew[j] = true
			events = append(events, Event{Type: Form, After: []int{j}})
		}
	}
	sort.Slice(events, func(a, b int) bool {
		ea, eb := events[a], events[b]
		if ea.Type != eb.Type {
			return ea.Type < eb.Type
		}
		return fmt.Sprint(ea) < fmt.Sprint(eb)
	})
	return events
}

// component collects the bipartite connected component containing old
// community i.
func component(i int, oldTo, newTo [][]int, seenOld, seenNew []bool) (os, ns []int) {
	var stackOld = []int{i}
	var stackNew []int
	seenOld[i] = true
	for len(stackOld) > 0 || len(stackNew) > 0 {
		if n := len(stackOld); n > 0 {
			cur := stackOld[n-1]
			stackOld = stackOld[:n-1]
			os = append(os, cur)
			for _, j := range oldTo[cur] {
				if !seenNew[j] {
					seenNew[j] = true
					stackNew = append(stackNew, j)
				}
			}
			continue
		}
		cur := stackNew[len(stackNew)-1]
		stackNew = stackNew[:len(stackNew)-1]
		ns = append(ns, cur)
		for _, oi := range newTo[cur] {
			if !seenOld[oi] {
				seenOld[oi] = true
				stackOld = append(stackOld, oi)
			}
		}
	}
	slices.Sort(os)
	slices.Sort(ns)
	return os, ns
}

// classify names the event for one relation component.
func classify(os, ns []int, old, new []Community, opts Options) Event {
	ev := Event{Before: os, After: ns}
	switch {
	case len(ns) == 0:
		ev.Type = Dissolve
	case len(os) == 0:
		ev.Type = Form
	case len(os) == 1 && len(ns) == 1:
		a := float64(len(old[os[0]].Vertices))
		b := float64(len(new[ns[0]].Vertices))
		switch {
		case b > a*opts.StableRatio:
			ev.Type = Grow
		case a > b*opts.StableRatio:
			ev.Type = Shrink
		default:
			ev.Type = Continue
		}
	case len(os) == 1:
		ev.Type = Split
	case len(ns) == 1:
		ev.Type = Merge
	default:
		// Many-to-many: report as a merge (the dominant reading when
		// several communities reorganize into several others).
		ev.Type = Merge
	}
	return ev
}

// FromSnapshots extracts level-k communities of both snapshots and
// detects events between them.
func FromSnapshots(old, new *graph.Graph, k int32, opts Options) ([]Community, []Community, []Event) {
	co := CommunitiesAt(old, k)
	cn := CommunitiesAt(new, k)
	return co, cn, Detect(co, cn, opts)
}

package main

import (
	"encoding/json"
	"fmt"

	"trikcore/internal/core"
	"trikcore/internal/graph"
	"trikcore/internal/registry"
	"trikcore/internal/view"
)

// trackedGraph rebuilds the edge set the harness drove the server to:
// the base graph with every applied batch's removals, then additions.
func trackedGraph(p *plan, applied ...[]batch) (*graph.Graph, error) {
	g, err := graph.LoadEdgeListFile(p.GraphFile)
	if err != nil {
		return nil, err
	}
	for _, bs := range applied {
		for _, b := range bs {
			for _, e := range b.Remove {
				g.RemoveEdge(e[0], e[1])
			}
			for _, e := range b.Add {
				g.AddEdge(e[0], e[1])
			}
		}
	}
	return g, nil
}

// checkServed compares the served κ of every edge with Algorithm 1 run
// from scratch on the tracked edge set.
func checkServed(sn *view.Snapshot, g *graph.Graph) error {
	s := graph.FreezeStatic(g)
	d := core.DecomposeStatic(s, core.Options{})
	if sn.NumEdges() != s.NumEdges() {
		return fmt.Errorf("served %d edges, tracked %d", sn.NumEdges(), s.NumEdges())
	}
	bad := 0
	for i, want := range d.Kappa {
		if got, ok := sn.KappaOf(s.EdgeAt(int32(i))); !ok || got != want {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d edges serve a κ that differs from a fresh decomposition", bad, len(d.Kappa))
	}
	return nil
}

// checkFeed verifies the watched subscriber's event stream: ids 1..last
// exactly once and in order across resumes, and κ events that, replayed
// over the κ the subscriber attached at, reproduce the final snapshot.
// It returns the number of lost or duplicated events with any error.
func checkFeed(st *stack, sp *registry.Space) (int, error) {
	sub := st.sub
	bad := sub.dupes + sub.missing
	if sub.err != nil {
		return bad, sub.err
	}
	if want := sp.Feed().LastID(); sub.last.Load() != want {
		return bad, fmt.Errorf("subscriber read through event %d, feed recorded %d", sub.last.Load(), want)
	}
	kappa := make(map[graph.Edge]int32, len(st.base.Kappa))
	for i, k := range st.base.Kappa {
		kappa[st.base.S.EdgeAt(int32(i))] = k
	}
	for _, ev := range sub.events {
		if ev.kind != registry.KindKappa {
			continue
		}
		var ke registry.KappaEvent
		if err := json.Unmarshal(ev.data, &ke); err != nil {
			return bad, fmt.Errorf("event %d: %v", ev.id, err)
		}
		e := graph.NewEdge(ke.U, ke.V)
		if ke.To == registry.KappaAbsent {
			delete(kappa, e)
		} else {
			kappa[e] = ke.To
		}
	}
	final := sp.Acquire()
	if len(kappa) != final.NumEdges() {
		return bad, fmt.Errorf("replayed events give %d edges, snapshot has %d", len(kappa), final.NumEdges())
	}
	for e, k := range kappa {
		if got, ok := final.KappaOf(e); !ok || got != k {
			return bad, fmt.Errorf("replayed κ(%v)=%d, snapshot serves %d", e, k, got)
		}
	}
	if bad > 0 {
		return bad, fmt.Errorf("%d events lost or duplicated", bad)
	}
	return 0, nil
}

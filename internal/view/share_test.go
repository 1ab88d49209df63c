package view

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"trikcore/internal/dynamic"
	"trikcore/internal/gen"
	"trikcore/internal/graph"
)

// snapshotImage is everything a reader can see of a snapshot, computed
// afresh from its storage: κ of every edge by external edge, the
// histogram, the communities at every level, the density plot and the
// rows by external ids.
type snapshotImage struct {
	kappa map[graph.Edge]int32
	hist  []int
	comms [][][]graph.Edge
	svg   []byte
	rows  [][]graph.Edge
}

// imageOf reads sn through a fresh wrapper over the same storage, so no
// memoized artifact can hide a change to the storage underneath.
func imageOf(sn *Snapshot) snapshotImage {
	fresh := &Snapshot{Version: sn.Version, S: sn.S, Kappa: sn.Kappa, Hist: sn.Hist, MaxK: sn.MaxK}
	img := snapshotImage{kappa: make(map[graph.Edge]int32), hist: slices.Clone(fresh.Hist), svg: fresh.PlotSVG()}
	for i := int32(0); int(i) < fresh.NumEdges(); i++ {
		e := fresh.S.EdgeAt(i)
		img.kappa[e], _ = fresh.KappaOf(e)
	}
	for k := int32(0); k <= fresh.MaxK; k++ {
		img.comms = append(img.comms, fresh.Communities(k))
	}
	for p := int32(0); int(p) < fresh.NumVertices(); p++ {
		_, eids := fresh.S.Row(p)
		var row []graph.Edge
		for _, e := range eids {
			row = append(row, fresh.S.EdgeAt(e))
		}
		img.rows = append(img.rows, row)
	}
	return img
}

// TestHeldSnapshotSurvivesRepublication holds a snapshot while at least
// 50 batches publish after it — hub-skewed 8+8 edits, net deletions and
// edges to new vertices — at workers 1 and 4. Later snapshots share
// storage with it, so every artifact recomputed from its storage must
// match a deep copy taken when it was retained, and the last snapshot
// must match the engine.
func TestHeldSnapshotSurvivesRepublication(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			g := gen.PowerLawCluster(300, 4, 0.6, 11)
			p := NewPublisherFromGraph(g)
			p.SetWorkers(workers)
			mirror := dynamic.NewEngine(g)
			rng := rand.New(rand.NewSource(int64(workers)))
			verts := g.Vertices()
			slices.SortStableFunc(verts, func(a, b graph.Vertex) int { return g.Degree(b) - g.Degree(a) })
			zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(verts)-1))
			var last []dynamic.EdgeOp
			fresh := graph.Vertex(10_000)
			held := p.Acquire()
			want := imageOf(held)
			for i := 0; i < 60; i++ {
				var ops []dynamic.EdgeOp
				switch i % 3 {
				case 0: // hub 8+8: delete the last hub insertions, insert 8 more
					for _, op := range last {
						ops = append(ops, dynamic.EdgeOp{U: op.U, V: op.V, Del: true})
					}
					last = last[:0]
					for len(last) < 8 {
						u, v := verts[zipf.Uint64()], verts[zipf.Uint64()]
						op := dynamic.EdgeOp{U: min(u, v), V: max(u, v)}
						if _, ok := p.Acquire().KappaOf(graph.Edge{U: op.U, V: op.V}); u != v && !ok && !slices.Contains(last, op) {
							last = append(last, op)
						}
					}
					ops = append(ops, last...)
				case 1: // net deletion of 8 edges
					sn := p.Acquire()
					for k := 0; k < 8; k++ {
						e := sn.S.EdgeAt(int32(rng.Intn(sn.NumEdges())))
						ops = append(ops, dynamic.EdgeOp{U: e.U, V: e.V, Del: true})
					}
				case 2: // a new vertex joined to a hub and one of its neighbors
					u := verts[zipf.Uint64()]
					nbr := g.NeighborsSorted(u)
					ops = append(ops, dynamic.EdgeOp{U: fresh, V: u}, dynamic.EdgeOp{U: fresh, V: nbr[rng.Intn(len(nbr))]})
					fresh++
				}
				p.Apply(ops)
				mirror.ApplyBatch(ops)
				if p.Acquire() == held {
					t.Fatalf("batch %d published nothing", i)
				}
			}
			if got := imageOf(held); !reflect.DeepEqual(got, want) {
				t.Fatal("a held snapshot changed while later batches published")
			}
			if !bytes.Equal(held.PlotSVG(), want.svg) {
				t.Fatal("the held snapshot's memoized plot differs from its storage")
			}
			cur := p.Acquire()
			if cur.NumEdges() != mirror.NumEdges() || !slices.Equal(cur.Hist, mirror.KappaCounts()) {
				t.Fatalf("last snapshot: %d edges, histogram %v; engine %d, %v",
					cur.NumEdges(), cur.Hist, mirror.NumEdges(), mirror.KappaCounts())
			}
			for e, k := range mirror.EdgeKappas() {
				if got, ok := cur.KappaOf(e); !ok || got != int32(k) {
					t.Fatalf("last snapshot: KappaOf(%v) = %d, %v; engine %d", e, got, ok, k)
				}
			}
		})
	}
}

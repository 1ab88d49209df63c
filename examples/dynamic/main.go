// Dynamic maintenance: keep Triangle K-Core numbers exact while a social
// network churns, and compare the incremental engine (Algorithm 2)
// against re-computation from scratch — the Table III experiment in
// miniature.
//
//	go run ./examples/dynamic
package main

import (
	"fmt"
	"math/rand"
	"time"

	"trikcore"
	"trikcore/internal/gen"
)

func main() {
	// A scale-free, triangle-rich network of 3000 vertices.
	g := gen.PowerLawCluster(3000, 6, 0.5, 42)
	fmt.Printf("base graph: %d vertices, %d edges, %d triangles\n",
		g.NumVertices(), g.NumEdges(), trikcore.TriangleCount(g))

	en := trikcore.NewEngine(g)
	rng := rand.New(rand.NewSource(7))

	// Churn: 1% of edges change (half deleted, half inserted).
	churn := g.NumEdges() / 100
	var dels, adds []trikcore.Edge
	edges := g.Edges()
	perm := rng.Perm(len(edges))
	for i := 0; i < churn/2; i++ {
		dels = append(dels, edges[perm[i]])
	}
	for len(adds) < churn/2 {
		u := trikcore.Vertex(rng.Intn(3000))
		v := trikcore.Vertex(rng.Intn(3000))
		if u != v && !g.HasEdge(u, v) {
			adds = append(adds, trikcore.NewEdge(u, v))
		}
	}

	// The whole churn is one batch: the engine applies it by net effect,
	// deletions before insertions, with exactly the κ of one-at-a-time
	// application.
	ops := make([]trikcore.EdgeOp, 0, len(dels)+len(adds))
	for _, e := range dels {
		ops = append(ops, trikcore.EdgeOp{U: e.U, V: e.V, Del: true})
	}
	for _, e := range adds {
		ops = append(ops, trikcore.EdgeOp{U: e.U, V: e.V})
	}
	start := time.Now()
	en.ApplyBatch(ops)
	updateTime := time.Since(start)

	start = time.Now()
	check := trikcore.Decompose(en.Graph())
	recomputeTime := time.Since(start)

	fmt.Printf("changed %d edges\n", len(dels)+len(adds))
	fmt.Printf("incremental update: %v\n", updateTime)
	fmt.Printf("full re-compute:    %v (%.0fx slower)\n",
		recomputeTime, float64(recomputeTime)/float64(updateTime))

	// The engine's answers are exact: verify against the recompute.
	mismatches := 0
	for e, k := range check.EdgeKappas() {
		if got, _ := en.Kappa(e); int(got) != k {
			mismatches++
		}
	}
	fmt.Printf("κ mismatches vs recompute: %d\n", mismatches)

	st := en.Stats()
	fmt.Printf("engine work: %d triangles processed, %d edges visited, %d promotions, %d demotions\n",
		st.TrianglesProcessed, st.EdgesVisited, st.Promotions, st.Demotions)
}

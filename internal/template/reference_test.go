package template

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"trikcore/internal/core"
	"trikcore/internal/dynamic"
	"trikcore/internal/graph"
	"trikcore/internal/plot"
)

// detectReference is Algorithm 4 as first written: two triangle passes
// over the map graph and the map-based density plot. The CSR body must
// reproduce it exactly.
func detectReference(g *graph.Graph, spec Spec) *Result {
	r := &Result{Spec: spec, Special: graph.New()}
	specialV := make(map[graph.Vertex]bool)
	specialE := make(map[graph.Edge]bool)
	forEachTriangleReference(g, func(t graph.Triangle) {
		if spec.IsCharacteristic(t) {
			r.Characteristic = append(r.Characteristic, t)
			for _, e := range t.Edges() {
				specialE[e] = true
			}
			specialV[t.A], specialV[t.B], specialV[t.C] = true, true, true
		}
	})
	if spec.IsPossible != nil {
		forEachTriangleReference(g, func(t graph.Triangle) {
			if specialV[t.A] && specialV[t.B] && specialV[t.C] && spec.IsPossible(t) {
				r.Possible = append(r.Possible, t)
				for _, e := range t.Edges() {
					specialE[e] = true
				}
			}
		})
	}
	for v := range specialV {
		r.Special.AddVertex(v)
	}
	for e := range specialE {
		r.Special.AddEdgeE(e)
	}
	r.Kappa = core.Decompose(r.Special).EdgeKappas()
	r.Values = make(plot.EdgeValues, len(specialE))
	for e, k := range r.Kappa {
		r.Values[e] = k + 2
	}
	r.Series = plot.Density(g, r.Values)
	sortTriangles(r.Characteristic)
	sortTriangles(r.Possible)
	return r
}

// forEachTriangleReference enumerates every triangle of g once, from its
// lexicographically smallest edge.
func forEachTriangleReference(g *graph.Graph, fn func(t graph.Triangle)) {
	g.ForEachEdge(func(e graph.Edge) bool {
		g.ForEachCommonNeighbor(e.U, e.V, func(w graph.Vertex) bool {
			if w > e.V {
				fn(graph.NewTriangle(e.U, e.V, w))
			}
			return true
		})
		return true
	})
}

// evolvingPair builds a seeded (old, new) snapshot pair that exercises
// every novelty class: old is a few overlapping communities plus noise;
// new deletes some old edges, adds chords among old vertices (planted
// cliques, so New Form and Bridge fire), joins fresh vertices onto old
// cliques (New Join) and lets old vertices gain scattered edges.
func evolvingPair(seed int64) (old, new *graph.Graph) {
	rng := rand.New(rand.NewSource(seed))
	const n = 40
	old = graph.New()
	for c := 0; c < 6; c++ {
		size := 3 + rng.Intn(4)
		var vs []graph.Vertex
		for len(vs) < size {
			vs = append(vs, graph.Vertex(rng.Intn(n)))
		}
		for i := range vs {
			for j := i + 1; j < len(vs); j++ {
				if vs[i] != vs[j] && rng.Float64() < 0.9 {
					old.AddEdge(vs[i], vs[j])
				}
			}
		}
	}
	for i := 0; i < 30; i++ {
		if u, v := graph.Vertex(rng.Intn(n)), graph.Vertex(rng.Intn(n)); u != v {
			old.AddEdge(u, v)
		}
	}
	new = old.Clone()
	for _, e := range old.Edges() {
		if rng.Float64() < 0.1 {
			new.RemoveEdgeE(e)
		}
	}
	oldV := old.Vertices()
	for c := 0; c < 2; c++ {
		var vs []graph.Vertex
		for k := 0; k < 3+rng.Intn(3); k++ {
			vs = append(vs, oldV[rng.Intn(len(oldV))])
		}
		for i := range vs {
			for j := i + 1; j < len(vs); j++ {
				if vs[i] != vs[j] {
					new.AddEdge(vs[i], vs[j])
				}
			}
		}
	}
	fresh := graph.Vertex(1000)
	oldE := old.Edges()
	for c := 0; c < 2; c++ {
		base := oldE[rng.Intn(len(oldE))]
		joined := []graph.Vertex{base.U, base.V}
		for k := 0; k < 1+rng.Intn(3); k++ {
			for _, w := range joined {
				if rng.Float64() < 0.9 {
					new.AddEdge(fresh, w)
				}
			}
			joined = append(joined, fresh)
			fresh++
		}
	}
	for i := 0; i < 10; i++ {
		if u, v := oldV[rng.Intn(len(oldV))], oldV[rng.Intn(len(oldV))]; u != v {
			new.AddEdge(u, v)
		}
	}
	return old, new
}

// diffResults reports the first field on which got differs from want,
// or "" when they agree; Series is compared only when withSeries is set.
func diffResults(got, want *Result, withSeries bool) string {
	switch {
	case !reflect.DeepEqual(got.Characteristic, want.Characteristic):
		return fmt.Sprintf("Characteristic %v, want %v", got.Characteristic, want.Characteristic)
	case !reflect.DeepEqual(got.Possible, want.Possible):
		return fmt.Sprintf("Possible %v, want %v", got.Possible, want.Possible)
	case !reflect.DeepEqual(got.Special.Vertices(), want.Special.Vertices()):
		return fmt.Sprintf("Special vertices %v, want %v", got.Special.Vertices(), want.Special.Vertices())
	case !reflect.DeepEqual(got.Special.Edges(), want.Special.Edges()):
		return fmt.Sprintf("Special edges %v, want %v", got.Special.Edges(), want.Special.Edges())
	case !reflect.DeepEqual(got.Kappa, want.Kappa):
		return fmt.Sprintf("Kappa %v, want %v", got.Kappa, want.Kappa)
	case !reflect.DeepEqual(got.Values, want.Values):
		return fmt.Sprintf("Values %v, want %v", got.Values, want.Values)
	case withSeries && !reflect.DeepEqual(got.Series, want.Series):
		return fmt.Sprintf("Series %v, want %v", got.Series, want.Series)
	}
	return ""
}

// TestDetectMatchesReference runs the CSR Detect against the map-based
// reference on seeded evolving pairs, for the three evolving templates
// and the InterComplex Bridge, and the seeded DetectOn against Detect
// for the evolving ones. The seeded run uses the view a dynamic engine
// freezes after applying old → new, whose dense ids follow insertion
// history rather than vertex order, with the new edges as seeds.
func TestDetectMatchesReference(t *testing.T) {
	fired := map[string]int{}
	for seed := int64(1); seed <= 40; seed++ {
		old, new := evolvingPair(seed)
		en := dynamic.NewEngine(old)
		var ops []dynamic.EdgeOp
		for _, e := range old.Edges() {
			if !new.HasEdgeE(e) {
				ops = append(ops, dynamic.EdgeOp{U: e.U, V: e.V, Del: true})
			}
		}
		var fresh []graph.Edge
		for _, e := range new.Edges() {
			if !old.HasEdgeE(e) {
				ops = append(ops, dynamic.EdgeOp{U: e.U, V: e.V})
				fresh = append(fresh, e)
			}
		}
		en.ApplyBatch(ops)
		view, _ := en.FreezeView()
		seeds := []int32{}
		for _, e := range fresh {
			seeds = append(seeds, view.EdgeOf(e))
		}

		nov := Evolving(old, new)
		label := map[graph.Vertex]string{}
		rng := rand.New(rand.NewSource(seed))
		for _, v := range new.Vertices() {
			label[v] = string(rune('a' + rng.Intn(3)))
		}
		specs := []Spec{NewForm(nov), Bridge(nov), NewJoin(nov), Bridge(InterComplex(label))}
		for i, spec := range specs {
			got, want := Detect(new, spec), detectReference(new, spec)
			if d := diffResults(got, want, true); d != "" {
				t.Fatalf("seed %d %s: Detect differs from the reference: %s", seed, spec.Name, d)
			}
			if len(want.Characteristic) > 0 {
				fired[fmt.Sprintf("%s/%d", spec.Name, i)]++
			}
			if i == 3 {
				continue // the seeded precondition holds for evolving novelty only
			}
			seeded := DetectOn(view, spec, seeds)
			withSeries := len(got.Characteristic) > 0
			if d := diffResults(seeded, got, withSeries); d != "" {
				t.Fatalf("seed %d %s: seeded DetectOn differs from Detect: %s", seed, spec.Name, d)
			}
			if !withSeries && (seeded.Series.Len() != 0 || len(got.TopCliques(3, 3)) != 0) {
				t.Fatalf("seed %d %s: nothing fired, yet the seeded plot has %d points and Detect has peaks %v",
					seed, spec.Name, seeded.Series.Len(), got.TopCliques(3, 3))
			}
		}
	}
	for i, name := range []string{"new-form", "bridge", "new-join", "bridge"} {
		if fired[fmt.Sprintf("%s/%d", name, i)] == 0 {
			t.Errorf("template %d (%s) never fired across the seeds; the comparison is vacuous for it", i, name)
		}
	}
}

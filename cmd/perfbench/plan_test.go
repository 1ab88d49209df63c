package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"trikcore/internal/gen"
	"trikcore/internal/graph"
)

func smallGraph() *graph.Graph { return gen.PowerLawCluster(400, 5, 0.6, 7) }

// replay applies batches to a copy of g's edge set, checking that each
// batch after the first has its class's one shape: every removal hits a
// present edge and every insertion a missing one, size of each.
func replay(t *testing.T, g *graph.Graph, bs []batch, size int) {
	t.Helper()
	present := map[graph.Edge]bool{}
	for _, e := range g.Edges() {
		present[e] = true
	}
	level := -1
	for i, b := range bs {
		if i > 0 && (len(b.Add) != size || len(b.Remove) != size) {
			t.Fatalf("batch %d: %d adds, %d removes; want %d of each", i, len(b.Add), len(b.Remove), size)
		}
		for _, e := range b.Remove {
			k := graph.NewEdge(e[0], e[1])
			if !present[k] {
				t.Fatalf("batch %d removes absent edge %v", i, k)
			}
			delete(present, k)
		}
		for _, e := range b.Add {
			k := graph.NewEdge(e[0], e[1])
			if present[k] {
				t.Fatalf("batch %d inserts present edge %v", i, k)
			}
			present[k] = true
		}
		if i == 0 {
			level = len(present)
		} else if len(present) != level {
			t.Fatalf("batch %d leaves %d edges, want a level %d", i, len(present), level)
		}
	}
}

func TestFreshBatchesHaveOneShape(t *testing.T) {
	g := smallGraph()
	replay(t, g, freshBatches(g, rand.New(rand.NewSource(1)), 60, 8), 8)
}

func TestBulkBatchesHaveOneShape(t *testing.T) {
	g := smallGraph()
	bs := bulkBatches(sortedEdges(g), rand.New(rand.NewSource(1)), 100)
	// Cycle the stream twice, as a long closed loop does.
	p := &plan{Ops: bs}
	stream := []batch{p.opAt(0)}
	for k := 1; k < 2*len(bs); k++ {
		stream = append(stream, p.opAt(k))
	}
	replay(t, g, stream, 100)
}

func TestSameSeedSameStream(t *testing.T) {
	g := smallGraph()
	base := sortedEdges(g)
	streams := func(seed int64) []any {
		return []any{
			freshBatches(g, rand.New(rand.NewSource(seed)), 20, 8),
			bulkBatches(base, rand.New(rand.NewSource(seed)), 50),
			readPaths(base, rand.New(rand.NewSource(seed)), 200),
			thinkTimes(rand.New(rand.NewSource(seed)), 50, 20*time.Millisecond),
		}
	}
	a, b, c := streams(3), streams(3), streams(4)
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Errorf("stream %d differs between two runs of seed 3", i)
		}
		if reflect.DeepEqual(a[i], c[i]) {
			t.Errorf("stream %d is the same for seeds 3 and 4", i)
		}
	}
}

func TestReadMix(t *testing.T) {
	g := smallGraph()
	paths := readPaths(sortedEdges(g), rand.New(rand.NewSource(1)), 5000)
	n := map[string]int{}
	for _, p := range paths {
		n[strings.SplitN(p, "?", 2)[0]]++
	}
	if k := float64(n["/kappa"]) / 5000; k < 0.77 || k > 0.83 {
		t.Errorf("/kappa share %.3f, want ~0.8 (%v)", k, n)
	}
	if len(n) != 3 {
		t.Errorf("read classes %v, want /kappa, /stats, /histogram", n)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// command prints in step: every end-to-end metric a run reports and
// every per-layer metric a traced run reports is declared, with its
// unit, and every workload exists.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command has %d", len(spec.Workloads), len(workloads))
	}
	e2e := endToEnd(&outcome{}, 1)
	e2e["setup_s"] = metric{1, "s"}
	declared := map[string]string{}
	for _, m := range spec.EndToEnd {
		declared[m.Name] = m.Unit
	}
	if len(declared) != len(e2e) {
		t.Errorf("BENCHMARK.json declares %d end-to-end metrics, a run prints %d", len(declared), len(e2e))
	}
	for name, m := range e2e {
		if declared[name] != m.Unit {
			t.Errorf("end-to-end %s: declared unit %q, printed %q", name, declared[name], m.Unit)
		}
	}
	lm := layerMetrics{}
	lm.fillMissing()
	declared = map[string]string{}
	for _, m := range spec.PerLayer {
		declared[m.Name] = m.Unit
	}
	if len(declared) != len(lm) {
		t.Errorf("BENCHMARK.json declares %d per-layer metrics, a traced run prints %d", len(declared), len(lm))
	}
	for name, m := range lm {
		if declared[name] != m.Unit {
			t.Errorf("per-layer %s: declared unit %q, printed %q", name, declared[name], m.Unit)
		}
	}
}

package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"trikcore/internal/graph"
)

// determinismGraph builds the same graph content twice with opposite
// edge-insertion orders, so any map-order leak in the engine or the
// handlers shows up as a byte difference between the two servers.
func determinismGraphs() (*graph.Graph, *graph.Graph) {
	var edges [][2]graph.Vertex
	for i := graph.Vertex(1); i <= 7; i++ {
		for j := i + 1; j <= 7; j++ {
			edges = append(edges, [2]graph.Vertex{i, j})
		}
	}
	edges = append(edges, [2]graph.Vertex{20, 21}, [2]graph.Vertex{21, 22}, [2]graph.Vertex{20, 22})
	fwd, rev := graph.New(), graph.New()
	for _, e := range edges {
		fwd.AddEdge(e[0], e[1])
	}
	for i := len(edges) - 1; i >= 0; i-- {
		rev.AddEdge(edges[i][0], edges[i][1])
	}
	return fwd, rev
}

func fetchBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestResponsesDeterministic requires every read endpoint to return
// byte-identical bodies (a) on repeated requests to one server and
// (b) across two servers whose graphs were built in opposite edge
// orders. JSON object key order, plot sample order and histogram order
// must therefore never depend on Go's randomized map iteration.
func TestResponsesDeterministic(t *testing.T) {
	g1, g2 := determinismGraphs()
	ts1 := httptest.NewServer(New(g1).Handler())
	ts2 := httptest.NewServer(New(g2).Handler())
	t.Cleanup(ts1.Close)
	t.Cleanup(ts2.Close)

	paths := []string{
		"/stats",
		"/histogram",
		"/kappa?u=1&v=2",
		"/core?u=1&v=2",
		"/communities?k=3",
		"/plot.svg",
		"/plot.txt",
	}
	for _, path := range paths {
		first := fetchBody(t, ts1.URL+path)
		if again := fetchBody(t, ts1.URL+path); string(again) != string(first) {
			t.Errorf("%s: same server, two requests, different bytes:\n%s\n---\n%s", path, first, again)
		}
		if other := fetchBody(t, ts2.URL+path); string(other) != string(first) {
			t.Errorf("%s: same graph built in reverse order, different bytes:\n%s\n---\n%s", path, first, other)
		}
	}
}

// TestRepublishDeterministic drives the graph away from its initial
// state and back again, forcing a republish of the same graph content at
// a higher version, and requires every content endpoint to return
// byte-identical bodies. Dense ids get scrambled by the churn (each
// batch moves its top edges into the deleted edges' ids), so any handler
// or derived artifact ordered by dense
// position rather than external vertex id fails here. /stats is checked
// separately: its Updates work counters legitimately advance across the
// round trip, but the graph-shape fields must return to their old values.
func TestRepublishDeterministic(t *testing.T) {
	g, _ := determinismGraphs()
	ts := httptest.NewServer(New(g).Handler())
	t.Cleanup(ts.Close)

	paths := []string{
		"/histogram",
		"/kappa?u=1&v=2",
		"/core?u=1&v=2",
		"/communities?k=3",
		"/plot.svg",
		"/plot.txt",
	}
	before := make(map[string][]byte, len(paths))
	for _, path := range paths {
		before[path] = fetchBody(t, ts.URL+path)
	}
	var st0 StatsReply
	getJSON(t, ts.URL+"/stats", &st0)
	var v0 VersionReply
	getJSON(t, ts.URL+"/version", &v0)

	// Out and back among the existing vertices (edge removal never drops
	// vertices, so new vertices would not round-trip): drop two original
	// edges, bridge the components, then undo. The re-added edges land at
	// the end of the dense ids, so the republished freeze numbers them in
	// a different order than the original.
	postJSON(t, ts.URL+"/edges", `{"remove":[[1,2],[20,21]],"add":[[1,20]]}`)
	postJSON(t, ts.URL+"/edges", `{"remove":[[1,20]],"add":[[1,2],[20,21]]}`)

	var v1 VersionReply
	getJSON(t, ts.URL+"/version", &v1)
	if v1.Version <= v0.Version {
		t.Fatalf("round trip did not republish: v%d → v%d", v0.Version, v1.Version)
	}
	for _, path := range paths {
		if after := fetchBody(t, ts.URL+path); string(after) != string(before[path]) {
			t.Errorf("%s: republished same graph, different bytes:\n%s\n---\n%s",
				path, before[path], after)
		}
	}
	var st1 StatsReply
	getJSON(t, ts.URL+"/stats", &st1)
	if st1.Vertices != st0.Vertices || st1.Edges != st0.Edges ||
		st1.MaxKappa != st0.MaxKappa || st1.MaxCliqueProxy != st0.MaxCliqueProxy {
		t.Errorf("graph-shape stats changed across round trip: %+v vs %+v", st0, st1)
	}
}

// TestWorkerCountDeterministic drives servers configured with 1, 2 and 8
// maintenance workers through the same batched churn and requires
// byte-identical bodies from every content endpoint afterwards. The
// parallel apply path promises snapshot-level determinism regardless of
// worker count; this is the regression net for that promise at the
// serving boundary.
func TestWorkerCountDeterministic(t *testing.T) {
	build := func(workers int) *httptest.Server {
		g, _ := determinismGraphs()
		ts := httptest.NewServer(NewWith(g, Options{Workers: workers}).Handler())
		t.Cleanup(ts.Close)
		return ts
	}
	// Batches that tear triangles apart, rebuild them elsewhere, and close
	// new ones across the two components — enough churn that regions,
	// validation and the conflict suffix all participate.
	batches := []string{
		`{"remove":[[1,2],[3,4],[20,21]],"add":[[1,20],[2,21],[3,22],[8,9],[8,10],[9,10]]}`,
		`{"remove":[[1,20],[8,9]],"add":[[1,2],[3,4],[20,21],[8,11],[9,11],[10,11]]}`,
		`{"remove":[[2,21],[3,22]],"add":[[8,9],[5,8],[5,9],[6,10],[6,11]]}`,
	}
	servers := map[int]*httptest.Server{1: build(1), 2: build(2), 8: build(8)}
	for _, body := range batches {
		for _, ts := range servers {
			postJSON(t, ts.URL+"/edges", body)
		}
	}
	paths := []string{
		"/histogram",
		"/communities?k=1",
		"/communities?k=2",
		"/plot.svg",
		"/plot.txt",
	}
	base := servers[1]
	for _, path := range paths {
		want := fetchBody(t, base.URL+path)
		for workers, ts := range servers {
			if workers == 1 {
				continue
			}
			if got := fetchBody(t, ts.URL+path); string(got) != string(want) {
				t.Errorf("%s: workers=%d differs from workers=1:\n%s\n---\n%s", path, workers, want, got)
			}
		}
	}
	var v1 VersionReply
	getJSON(t, base.URL+"/version", &v1)
	for workers, ts := range servers {
		var v VersionReply
		getJSON(t, ts.URL+"/version", &v)
		if v.Version != v1.Version {
			t.Errorf("workers=%d: version %d, workers=1 got %d", workers, v.Version, v1.Version)
		}
	}
}

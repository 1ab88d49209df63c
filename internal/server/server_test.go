package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"trikcore/internal/graph"
	"trikcore/internal/registry"
)

// newTestServer builds a server over a K5 plus a pendant path and returns
// it with an httptest wrapper.
func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	g := graph.New()
	for i := graph.Vertex(1); i <= 5; i++ {
		for j := i + 1; j <= 5; j++ {
			g.AddEdge(i, j)
		}
	}
	g.AddEdge(10, 11)
	s := New(g)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// defaultSpace returns the server's default graph space, panicking if it
// was deleted.
func (s *Server) defaultSpace() *registry.Space {
	sp, ok := s.reg.Get(registry.DefaultGraph)
	if !ok {
		panic("server: default graph deleted")
	}
	return sp
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestStats(t *testing.T) {
	_, ts := newTestServer(t)
	var rep StatsReply
	if code := getJSON(t, ts.URL+"/stats", &rep); code != 200 {
		t.Fatalf("status %d", code)
	}
	if rep.Vertices != 7 || rep.Edges != 11 || rep.MaxKappa != 3 || rep.MaxCliqueProxy != 5 {
		t.Fatalf("stats = %+v", rep)
	}
}

func TestKappa(t *testing.T) {
	_, ts := newTestServer(t)
	var rep KappaReply
	if code := getJSON(t, ts.URL+"/kappa?u=2&v=1", &rep); code != 200 {
		t.Fatalf("status %d", code)
	}
	if rep.U != 1 || rep.V != 2 || rep.Kappa != 3 || rep.CoCliqueSize != 5 {
		t.Fatalf("kappa = %+v", rep)
	}
	if code := getJSON(t, ts.URL+"/kappa?u=1&v=99", nil); code != 404 {
		t.Fatalf("missing edge status %d", code)
	}
	for _, q := range []string{"?u=x&v=2", "?u=1", "?u=3&v=3"} {
		if code := getJSON(t, ts.URL+"/kappa"+q, nil); code != 400 {
			t.Fatalf("bad query %q status %d", q, code)
		}
	}
}

func TestHistogram(t *testing.T) {
	_, ts := newTestServer(t)
	var rep map[string]int
	getJSON(t, ts.URL+"/histogram", &rep)
	if rep["3"] != 10 || rep["0"] != 1 {
		t.Fatalf("histogram = %v", rep)
	}
}

func TestEdgesUpdateFlow(t *testing.T) {
	_, ts := newTestServer(t)
	body, _ := json.Marshal(EdgesRequest{
		Add:    [][2]graph.Vertex{{6, 1}, {6, 2}, {6, 3}, {6, 4}, {6, 5}, {6, 1}},
		Remove: [][2]graph.Vertex{{10, 11}, {77, 78}},
	})
	resp, err := http.Post(ts.URL+"/edges", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var rep EdgesReply
	json.NewDecoder(resp.Body).Decode(&rep)
	resp.Body.Close()
	if rep.Added != 5 || rep.Removed != 1 {
		t.Fatalf("edges reply = %+v (duplicates and absent edges must not count)", rep)
	}
	// Vertex 6 completed a K6: κ rises to 4 everywhere in it.
	var kr KappaReply
	getJSON(t, ts.URL+"/kappa?u=1&v=2", &kr)
	if kr.Kappa != 4 {
		t.Fatalf("after join κ(1,2) = %d, want 4", kr.Kappa)
	}
}

func TestEdgesBadRequests(t *testing.T) {
	_, ts := newTestServer(t)
	for _, body := range []string{"{not json", `{"add":[[3,3]]}`} {
		resp, err := http.Post(ts.URL+"/edges", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Fatalf("body %q: status %d", body, resp.StatusCode)
		}
	}
}

// TestEdgesRejectNegativeIDs pins the write boundary's id check: graph
// vertex ids are non-negative (no TKCG file can hold another), so a
// negative id in a write body is a 400 JSON envelope that leaves the
// version where it was, and a seed body carrying one creates no graph.
func TestEdgesRejectNegativeIDs(t *testing.T) {
	s, ts := newTestServer(t)
	v0 := s.defaultSpace().Acquire().Version
	for _, body := range []string{`{"add":[[-3,1]]}`, `{"remove":[[1,-2]]}`} {
		got := mustStatus(t, http.MethodPost, ts.URL+"/edges", body, http.StatusBadRequest)
		var env struct {
			Error  string `json:"error"`
			Status int    `json:"status"`
		}
		if err := json.Unmarshal(got, &env); err != nil || env.Status != 400 || !strings.Contains(env.Error, "negative vertex id") {
			t.Fatalf("body %s: envelope %q (%v)", body, got, err)
		}
	}
	if v := s.defaultSpace().Acquire().Version; v != v0 {
		t.Fatalf("rejected write moved version %d -> %d", v0, v)
	}
	mustStatus(t, http.MethodPost, ts.URL+"/g/neg", `{"add":[[1,2],[-1,3]]}`, http.StatusBadRequest)
	mustStatus(t, http.MethodGet, ts.URL+"/g/neg/stats", "", http.StatusNotFound)
}

func TestCore(t *testing.T) {
	_, ts := newTestServer(t)
	var rep CoreReply
	if code := getJSON(t, ts.URL+"/core?u=1&v=2", &rep); code != 200 {
		t.Fatalf("status %d", code)
	}
	if rep.Kappa != 3 || len(rep.Edges) != 10 || len(rep.Vertices) != 5 {
		t.Fatalf("core = %+v", rep)
	}
	if code := getJSON(t, ts.URL+"/core?u=1&v=50", nil); code != 404 {
		t.Fatalf("missing edge status %d", code)
	}
}

func TestCommunities(t *testing.T) {
	_, ts := newTestServer(t)
	var rep []CommunityReply
	if code := getJSON(t, ts.URL+"/communities?k=3", &rep); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(rep) != 1 || rep[0].Edges != 10 || len(rep[0].Vertices) != 5 {
		t.Fatalf("communities = %+v", rep)
	}
	if code := getJSON(t, ts.URL+"/communities?k=0", nil); code != 400 {
		t.Fatalf("k=0 status %d", code)
	}
	if code := getJSON(t, ts.URL+"/communities?k=zz", nil); code != 400 {
		t.Fatalf("k=zz status %d", code)
	}
}

func TestPlots(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/plot.svg")
	if err != nil {
		t.Fatal(err)
	}
	svg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.Header.Get("Content-Type") != "image/svg+xml" || !bytes.Contains(svg, []byte("<svg")) {
		t.Fatal("svg plot malformed")
	}
	resp, err = http.Get(ts.URL + "/plot.txt")
	if err != nil {
		t.Fatal(err)
	}
	txt, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(txt, []byte("#")) {
		t.Fatal("text plot empty")
	}
}

func TestMethodRouting(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/edges") // GET on a POST route
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /edges status %d", resp.StatusCode)
	}
}

// TestConcurrentReadersAndWriters hammers the server with parallel reads
// and writes; the race detector (go test -race) and the engine's
// consistency guard both watch for trouble.
func TestConcurrentReadersAndWriters(t *testing.T) {
	_, ts := newTestServer(t)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				u := 20 + w
				v := 30 + i%5
				body := fmt.Sprintf(`{"add":[[%d,%d]]}`, u, v)
				resp, err := http.Post(ts.URL+"/edges", "application/json", strings.NewReader(body))
				if err == nil {
					resp.Body.Close()
				}
			}
		}(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				resp, err := http.Get(ts.URL + "/stats")
				if err == nil {
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()
	var rep StatsReply
	getJSON(t, ts.URL+"/stats", &rep)
	if rep.Edges < 11 {
		t.Fatalf("edges = %d after concurrent inserts", rep.Edges)
	}
}

func TestStatsEmptyGraph(t *testing.T) {
	s := New(graph.New())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var rep StatsReply
	getJSON(t, ts.URL+"/stats", &rep)
	if rep.Vertices != 0 || rep.Edges != 0 || rep.MaxCliqueProxy != 0 {
		t.Fatalf("empty stats = %+v", rep)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	var rep HealthzReply
	if code := getJSON(t, ts.URL+"/healthz", &rep); code != 200 {
		t.Fatalf("status %d", code)
	}
	if rep.Status != "ok" {
		t.Fatalf("healthz = %+v", rep)
	}
	if rep.UptimeSeconds < 0 {
		t.Fatalf("negative uptime %v", rep.UptimeSeconds)
	}
	if rep.Build.GoVersion == "" {
		t.Fatal("healthz build info missing goVersion")
	}
	if rep.Build.Module != "trikcore" {
		t.Fatalf("healthz build module = %q, want trikcore", rep.Build.Module)
	}
}

func TestEdgesBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t)
	// A syntactically endless "add" array larger than the body cap.
	body := io.MultiReader(
		strings.NewReader(`{"add":[`),
		strings.NewReader(strings.Repeat("[1,2],", maxEdgesBody/6+1)),
	)
	resp, err := http.Post(ts.URL+"/edges", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status %d, want %d", resp.StatusCode, http.StatusRequestEntityTooLarge)
	}
}

// TestHistogramAfterUpdates checks the maintained histogram and stats stay
// correct through batched updates: completing K6 then deleting it again.
func TestHistogramAfterUpdates(t *testing.T) {
	_, ts := newTestServer(t)
	post := func(req EdgesRequest) {
		t.Helper()
		body, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/edges", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	post(EdgesRequest{Add: [][2]graph.Vertex{{6, 1}, {6, 2}, {6, 3}, {6, 4}, {6, 5}}})
	var hist map[string]int
	getJSON(t, ts.URL+"/histogram", &hist)
	if hist["4"] != 15 || hist["0"] != 1 {
		t.Fatalf("after K6 histogram = %v", hist)
	}
	var rep StatsReply
	getJSON(t, ts.URL+"/stats", &rep)
	if rep.MaxKappa != 4 || rep.Edges != 16 {
		t.Fatalf("after K6 stats = %+v", rep)
	}
	// Remove vertex 6's edges again; everything returns to the seed state.
	post(EdgesRequest{Remove: [][2]graph.Vertex{{6, 1}, {6, 2}, {6, 3}, {6, 4}, {6, 5}}})
	hist = nil // Decode merges into a non-nil map; start fresh.
	getJSON(t, ts.URL+"/histogram", &hist)
	if hist["3"] != 10 || hist["0"] != 1 || len(hist) != 2 {
		t.Fatalf("after teardown histogram = %v", hist)
	}
	getJSON(t, ts.URL+"/stats", &rep)
	if rep.MaxKappa != 3 || rep.Edges != 11 {
		t.Fatalf("after teardown stats = %+v", rep)
	}
}

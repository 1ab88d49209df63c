package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"trikcore/internal/graph"
	"trikcore/internal/obs"
	"trikcore/internal/obs/trace"
)

// newTracedServer builds a server with the flight recorder and a metrics
// registry wired (no logger), over the standard K5-plus-pendant test
// graph.
func newTracedServer(t *testing.T, workers int) (*httptest.Server, *trace.Recorder, *obs.Registry) {
	t.Helper()
	g := graph.New()
	for i := graph.Vertex(1); i <= 5; i++ {
		for j := i + 1; j <= 5; j++ {
			g.AddEdge(i, j)
		}
	}
	g.AddEdge(10, 11)
	rec := trace.New(trace.Options{Ring: 16})
	reg := obs.NewRegistry()
	s := NewWith(g, Options{Trace: rec, Registry: reg, Workers: workers})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, rec, reg
}

// stageTimer pairs one stage histogram's _count series with the
// flight-recorder span the same timer records.
type stageTimer struct{ count, span string }

// The engine's stage timers on the serial and the parallel write path.
var (
	serialStages = []stageTimer{
		{"trikcore_engine_apply_batch_seconds_count", "engine.apply_batch"},
		{`trikcore_engine_batch_stage_seconds_count{phase="canonicalize"}`, "engine.canonicalize"},
		{`trikcore_engine_batch_stage_seconds_count{phase="delete"}`, "engine.delete"},
		{`trikcore_engine_batch_stage_seconds_count{phase="insert"}`, "engine.insert"},
	}
	parallelStages = []stageTimer{
		{"trikcore_engine_apply_parallel_seconds_count", "engine.apply_parallel"},
		{`trikcore_engine_parallel_stage_seconds_count{phase="resolve"}`, "engine.resolve"},
		{`trikcore_engine_parallel_stage_seconds_count{phase="partition"}`, "engine.partition"},
		{`trikcore_engine_parallel_stage_seconds_count{phase="execute"}`, "engine.execute"},
		{`trikcore_engine_parallel_stage_seconds_count{phase="merge"}`, "engine.merge"},
	}
	publishStage = stageTimer{"trikcore_publisher_publish_seconds_count", "publisher.publish"}
)

// postTimed sends one traced POST /edges and checks the stage-timer
// contract: the publisher's and every engine stage histogram of the path
// the write took move by exactly one, those of the other path stay put,
// and the trace holds exactly as many spans of each stage.
func postTimed(t *testing.T, ts *httptest.Server, reg *obs.Registry, parallel bool, body string) {
	t.Helper()
	before, err := obs.ParseValues(reg.Gather())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/edges", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /edges status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Trikcore-Trace") == "" {
		t.Fatal("traced response missing X-Trikcore-Trace header")
	}
	after, err := obs.ParseValues(reg.Gather())
	if err != nil {
		t.Fatal(err)
	}
	spans := make(map[string]int)
	for _, ev := range traceEvents(t, ts) {
		spans[ev.Name]++
	}
	check := func(timers []stageTimer, want int) {
		t.Helper()
		for _, st := range timers {
			if d := after[st.count] - before[st.count]; d != float64(want) {
				t.Errorf("%s moved by %v, want %d", st.count, d, want)
			}
			if spans[st.span] != want {
				t.Errorf("%d %q spans, want %d", spans[st.span], st.span, want)
			}
		}
	}
	taken, other := serialStages, parallelStages
	if parallel {
		taken, other = other, taken
	}
	check(append([]stageTimer{publishStage}, taken...), 1)
	check(other, 0)
}

// traceEvents fetches /debug/trace and decodes its events.
func traceEvents(t *testing.T, ts *httptest.Server) []struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Dur  float64 `json:"dur"`
	Tid  uint64  `json:"tid"`
} {
	t.Helper()
	status, body := fetch(t, ts.URL+"/debug/trace")
	if status != 200 {
		t.Fatalf("/debug/trace status %d: %s", status, body)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
			Tid  uint64  `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("/debug/trace not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	return doc.TraceEvents
}

// spanNames collects the distinct event names present.
func spanNames(evs []struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Dur  float64 `json:"dur"`
	Tid  uint64  `json:"tid"`
}) map[string]bool {
	names := make(map[string]bool)
	for _, ev := range evs {
		names[ev.Name] = true
	}
	return names
}

// TestDebugTraceCoversStageTimers drives a write through the serial
// engine path and checks the exported trace covers the registry span,
// the publisher spans, and every serial-batch stage timer, each stage
// recorded once in its histogram and once as a span.
func TestDebugTraceCoversStageTimers(t *testing.T) {
	ts, _, reg := newTracedServer(t, 0)
	postTimed(t, ts, reg, false, `{"add":[[20,21],[21,22],[20,22]],"remove":[[10,11]]}`)
	fetch(t, ts.URL+"/plot.txt")
	fetch(t, ts.URL+"/communities?k=3")

	evs := traceEvents(t, ts)
	names := spanNames(evs)
	for _, want := range []string{
		"POST /edges",            // root event of the write request
		"space.apply",            // registry layer
		"publisher.apply",        // view layer write funnel
		"publisher.publish",      // snapshot freeze
		"engine.apply_batch",     // engine batch envelope
		"engine.canonicalize",    // the three serial stage timers
		"engine.delete",          //
		"engine.insert",          //
		"memo.plot_txt",          // artifact memo build
		"memo.communities",       //
		"GET /g/{name}/plot.txt", // read request root (scoped pattern label)
	} {
		// Legacy routes register under the unprefixed pattern; accept
		// either label for read roots.
		if want == "GET /g/{name}/plot.txt" {
			if !names["GET /plot.txt"] && !names[want] {
				t.Fatalf("missing read-request root; have %v", names)
			}
			continue
		}
		if !names[want] {
			t.Fatalf("exported trace missing span %q; have %v", want, names)
		}
	}
	for _, ev := range evs {
		if ev.Ph != "X" || ev.Dur < 0 {
			t.Fatalf("malformed event %+v", ev)
		}
	}
}

// TestDebugTraceParallelStages drives a write through the parallel
// engine path (workers > 1) and checks the parallel stage timers appear,
// each recorded once in its histogram and once as a span.
func TestDebugTraceParallelStages(t *testing.T) {
	ts, _, reg := newTracedServer(t, 4)
	// A batch with several disjoint triangles so partitioning has regions.
	postTimed(t, ts, reg, true, `{"add":[[20,21],[21,22],[20,22],[30,31],[31,32],[30,32],[40,41],[41,42],[40,42]]}`)

	names := spanNames(traceEvents(t, ts))
	for _, want := range []string{
		"engine.apply_parallel",
		"engine.resolve", "engine.partition", "engine.execute", "engine.merge",
		"publisher.publish",
	} {
		if !names[want] {
			t.Fatalf("parallel trace missing span %q; have %v", want, names)
		}
	}
}

// TestHealthzTraceOccupancy checks /healthz reports the ring state, and
// only when tracing is on.
func TestHealthzTraceOccupancy(t *testing.T) {
	ts, rec, _ := newTracedServer(t, 0)
	fetch(t, ts.URL+"/stats")
	fetch(t, ts.URL+"/stats")
	status, body := fetch(t, ts.URL+"/healthz")
	if status != 200 {
		t.Fatalf("/healthz status %d", status)
	}
	var rep HealthzReply
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Trace == nil {
		t.Fatal("traced /healthz missing trace section")
	}
	if rep.Trace.Ring != rec.Ring() {
		t.Fatalf("ring = %d, want %d", rep.Trace.Ring, rec.Ring())
	}
	// The two /stats requests and the /healthz trace in flight: at least
	// the two finished /stats traces are retained.
	if rep.Trace.Recent < 2 || rep.Trace.Slowest < 2 {
		t.Fatalf("occupancy = %+v, want ≥2 in each ring", rep.Trace)
	}

	// Untraced server: no section, no /debug/trace route.
	g := graph.New()
	g.AddEdge(1, 2)
	plain := httptest.NewServer(NewWith(g, Options{}).Handler())
	defer plain.Close()
	_, body = fetch(t, plain.URL+"/healthz")
	var rep2 HealthzReply
	if err := json.Unmarshal(body, &rep2); err != nil {
		t.Fatal(err)
	}
	if rep2.Trace != nil {
		t.Fatal("untraced /healthz has trace section")
	}
	status, _ = fetch(t, plain.URL+"/debug/trace")
	if status != 404 {
		t.Fatalf("untraced /debug/trace status %d, want 404", status)
	}
}

// TestUntracedRequestsCarryNoHeader pins that tracing stays opt-in.
func TestUntracedRequestsCarryNoHeader(t *testing.T) {
	g := graph.New()
	g.AddEdge(1, 2)
	ts := httptest.NewServer(NewWith(g, Options{}).Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Trikcore-Trace") != "" {
		t.Fatal("untraced response carries X-Trikcore-Trace")
	}
}

package server

import (
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"trikcore/internal/core"
	"trikcore/internal/dynamic"
	"trikcore/internal/graph"
	"trikcore/internal/obs"
	"trikcore/internal/obs/trace"
	"trikcore/internal/registry"
	"trikcore/internal/view"
)

// Options configure the server: observability wiring plus the
// multi-tenancy envelope (graph-count cap and per-graph quotas). The
// zero value — no registry, no logger, no pprof, default caps, no
// quotas — yields a server whose legacy routes behave identically to
// the pre-tenancy single-graph server.
type Options struct {
	// Registry, when non-nil, receives metrics from every layer (engine,
	// publisher, HTTP, per-graph registry) and is served on GET /metrics
	// in Prometheus text format. The /metrics endpoint itself is not
	// instrumented, so two back-to-back scrapes of an idle server are
	// byte-identical.
	Registry *obs.Registry
	// Logger, when non-nil, receives one structured line per request:
	// method, path (the route pattern, not the raw URL), status, body
	// bytes and duration.
	Logger *slog.Logger
	// Pprof mounts net/http/pprof under /debug/pprof/. Off by default:
	// profiling endpoints expose internals and should be opted into.
	Pprof bool
	// Workers, when > 1, applies write batches through the engine's
	// parallel maintenance path with that many workers. Served state is
	// identical at any setting; this only changes write throughput.
	Workers int
	// MaxGraphs caps how many graph spaces the server hosts at once
	// (0 = registry.DefaultMaxGraphs, negative = unlimited).
	MaxGraphs int
	// Quotas bound every hosted graph space (zero fields = unlimited).
	Quotas registry.Quotas
	// Trace, when non-nil, turns on the per-request flight recorder:
	// every API request runs under a trace whose spans follow it through
	// registry, publisher and engine, the retained rings are exported as
	// Chrome trace-event JSON on GET /debug/trace, and responses carry
	// the trace id in an X-Trikcore-Trace header. Off by default —
	// untraced servers run the exact pre-trace request path.
	Trace *trace.Recorder
}

// NewWith builds a server hosting g as its "default" graph space, with
// explicit options. With a metrics registry, the initial decomposition
// runs with its phases timed and both the engine and the publisher of
// the default graph are instrumented against that registry before the
// first snapshot is served; additional graph spaces get per-graph
// trikcore_graph_* series instead (bounded by
// registry.DefaultMaxGraphLabels).
func NewWith(g *graph.Graph, opts Options) *Server {
	var pub *view.Publisher
	if opts.Registry != nil {
		phases := obs.NewPhaseTimer(opts.Registry, "trikcore_core_phase_seconds",
			"Wall time per decomposition phase.",
			core.PhaseFreeze, core.PhaseSupport, core.PhasePeel)
		en := dynamic.NewEngineFromDecomposition(
			core.DecomposeWith(g, core.Options{Phases: phases}))
		en.Instrument(opts.Registry)
		pub = view.NewPublisher(en)
		pub.Instrument(opts.Registry)
	} else {
		pub = view.NewPublisherFromGraph(g)
	}
	reg := registry.New(registry.Config{
		MaxGraphs: opts.MaxGraphs,
		Quotas:    opts.Quotas,
		Workers:   opts.Workers,
		Registry:  opts.Registry,
	})
	if _, err := reg.Adopt(registry.DefaultGraph, pub); err != nil {
		// A fresh registry with a valid constant name cannot refuse.
		panic("server: adopt default graph: " + err.Error())
	}
	s := &Server{
		reg:    reg,
		obsReg: opts.Registry,
		log:    opts.Logger,
		pprof:  opts.Pprof,
		tracer: opts.Trace,
		start:  time.Now(),
	}
	if s.obsReg != nil {
		s.inFlight = s.obsReg.Gauge("trikcore_http_in_flight_requests",
			"Requests currently being handled.", nil)
	}
	return s
}

// endpointMetrics is one route's handle set: the latency histogram plus a
// lazily-filled per-status-code counter array. The array is indexed by
// status code so the steady-state hot path is one atomic load; misses go
// through the registry's idempotent getOrCreate, so a racing fill is
// benign (both callers get the same handle).
type endpointMetrics struct {
	method, path string
	latency      *obs.Histogram
	codes        [600]atomic.Pointer[obs.Counter]
}

// counterFor resolves the requests_total counter for one status code.
func (em *endpointMetrics) counterFor(reg *obs.Registry, code int) *obs.Counter {
	if code < 0 || code >= len(em.codes) {
		code = 0
	}
	if c := em.codes[code].Load(); c != nil {
		return c
	}
	c := reg.Counter("trikcore_http_requests_total",
		"HTTP requests by endpoint and status code.",
		obs.Labels{"method": em.method, "path": em.path, "code": strconv.Itoa(code)})
	em.codes[code].Store(c)
	return c
}

// statusWriter captures the status code and body size a handler produced.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(p)
	sw.bytes += n
	return n, err
}

// Flush keeps SSE streaming working through the middleware wrapper.
func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// route registers pattern on mux, wrapped in the observability middleware
// when a registry or logger is configured. An unconfigured server
// registers the bare handler — zero overhead, exactly the pre-middleware
// behavior. The pattern's path segment (not the raw request URL) becomes
// the path label and log field, keeping label cardinality fixed.
func (s *Server) route(mux *http.ServeMux, pattern string, h http.HandlerFunc) {
	if s.obsReg == nil && s.log == nil && s.tracer == nil {
		mux.HandleFunc(pattern, h)
		return
	}
	method, path, ok := strings.Cut(pattern, " ")
	if !ok {
		method, path = "", pattern
	}
	var em *endpointMetrics
	if s.obsReg != nil {
		em = &endpointMetrics{
			method: method,
			path:   path,
			latency: s.obsReg.Histogram("trikcore_http_request_seconds",
				"HTTP request latency by endpoint.", obs.LogDurationBuckets,
				obs.Labels{"method": method, "path": path}),
		}
	}
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		s.inFlight.Add(1)
		sw := &statusWriter{ResponseWriter: w}
		// Each request runs under its own flight-recorder trace (nil
		// recorder → nil trace → every span downstream no-ops). The id
		// goes out as a response header before the handler writes, so a
		// slow request in the logs can be matched to /debug/trace.
		tr := s.tracer.Start(pattern)
		if tr != nil {
			sw.Header().Set("X-Trikcore-Trace", strconv.FormatUint(tr.ID(), 10))
			r = r.WithContext(trace.NewContext(r.Context(), tr))
		}
		h(sw, r)
		if sw.status == 0 {
			// Handler wrote nothing: net/http sends 200 on return.
			sw.status = http.StatusOK
		}
		tr.Finish()
		d := time.Since(t0)
		s.inFlight.Add(-1)
		if em != nil {
			em.latency.Observe(d.Seconds())
			em.counterFor(s.obsReg, sw.status).Inc()
		}
		if s.log != nil {
			s.log.LogAttrs(r.Context(), slog.LevelInfo, "request",
				slog.String("method", method),
				slog.String("path", path),
				slog.Int("status", sw.status),
				slog.Int("bytes", sw.bytes),
				slog.Duration("duration", d),
			)
		}
	})
}

// handleDebugTrace serves the flight recorder's retained traces as Chrome
// trace-event JSON (load into chrome://tracing or Perfetto). Registered
// outside the middleware like /metrics: inspecting traces must not record
// new ones.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(s.tracer.Export())
}

// handleMetrics serves the registry in Prometheus text format. It is
// registered outside the middleware: scraping must not perturb the
// metrics it reads, and an idle server's consecutive scrapes must be
// byte-identical.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.TextContentType)
	w.Write(s.obsReg.Gather())
}

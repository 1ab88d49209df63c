// Package server exposes live Triangle K-Core engines over HTTP: a
// multi-tenant analytics service that hosts named graph spaces, ingests
// edge updates and answers density queries — the "scalable
// visual-analytic framework" of the paper's introduction as an
// operational component.
//
// All state lives behind an internal/registry.Registry of graph spaces.
// Each space owns a view.Publisher: POST handlers funnel mutations
// through its single writer, which republishes an immutable
// view.Snapshot via an atomic pointer whenever the graph effectively
// changed. Every GET handler acquires the current snapshot with one
// atomic load and runs entirely lock-free on it — readers never contend
// with writers or with each other, and expensive artifacts (density
// plots, communities, dual views) are memoized per snapshot version so
// repeated requests at an unchanged version are byte-copy cheap.
//
// Endpoints (all JSON unless noted). Every graph-scoped endpoint exists
// twice: under /g/{name}/... for the named graph, and unprefixed as a
// legacy alias for the "default" graph, so pre-tenancy clients keep
// working byte-for-byte:
//
//	GET    /healthz                   liveness probe (global)
//	GET    /graphs                    list hosted graph spaces (global)
//	POST   /g/{name}                  create a graph space (optional seed body)
//	DELETE /g/{name}                  delete a graph space
//	GET    /g/{name}/version          current published snapshot version
//	GET    /g/{name}/stats            graph and κ summary (O(1), maintained)
//	GET    /g/{name}/kappa?u=U&v=V    κ and co-clique size of one edge
//	GET    /g/{name}/histogram        κ value → edge count (maintained)
//	POST   /g/{name}/edges            {"add":[[u,v],...],"remove":[[u,v],...]}
//	GET    /g/{name}/core?u=U&v=V     the edge's maximum Triangle K-Core
//	GET    /g/{name}/communities?k=K  triangle-connected communities at level K
//	GET    /g/{name}/plot.svg         density plot (image/svg+xml)
//	GET    /g/{name}/plot.txt         density plot (text/plain ASCII)
//	POST   /g/{name}/snapshot         bookmark the current snapshot
//	GET    /g/{name}/dualview[.svg]   dual view against the bookmark
//	GET    /g/{name}/events?k=K       community events against the bookmark
//	GET    /g/{name}/subscribe        SSE stream of κ and pattern change events
//
// Versioning and caching: every GET response carries an
// X-Trikcore-Version header naming the snapshot version it was served
// from, and an ETag derived from it ("v<version>"; the dual-view and
// events endpoints, whose bodies also depend on the bookmarked snapshot,
// use "v<version>.b<bookmark version>"). A conditional request whose
// If-None-Match names the current entity is answered 304 Not Modified
// with no body and no recomputation. Both headers are sound because each
// served body is a pure function of (snapshot version, request URL): the
// version moves exactly when the graph effectively changes.
//
// Errors: every non-2xx response — handler rejections, unknown graphs,
// the mux's own 404/405 fallbacks, quota breaches (429 for resource
// quotas, 413 for oversized bodies) — shares one JSON envelope:
//
//	{"error":"<message>","status":<code>}
//
// POST /edges applies the whole request as one quota-checked batch
// through the space (a rejected batch mutates nothing); its body is
// capped at the space's MaxBodyBytes (default maxEdgesBody). POST
// responses carry the X-Trikcore-Version resulting from the write.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"trikcore/internal/dynamic"
	"trikcore/internal/graph"
	"trikcore/internal/obs"
	"trikcore/internal/obs/trace"
	"trikcore/internal/registry"
	"trikcore/internal/view"
)

// maxEdgesBody bounds POST bodies (16 MiB ≈ a couple of million edge
// operations) when the space carries no tighter quota, keeping a
// misbehaving client from ballooning server memory.
const maxEdgesBody = 16 << 20

// Server wraps a registry of published graph spaces with an HTTP API.
// Handlers hold no server-level lock: reads run on acquired snapshots,
// writes serialize inside each space's publisher.
type Server struct {
	reg *registry.Registry

	// Observability wiring (see Options and NewWith). All nil/zero on an
	// unconfigured server, which then serves exactly as before: bare
	// handlers, no /metrics, no /debug/pprof.
	obsReg   *obs.Registry
	log      *slog.Logger
	pprof    bool
	tracer   *trace.Recorder
	start    time.Time
	inFlight *obs.Gauge
}

// New builds a server over a copy of g with observability disabled.
func New(g *graph.Graph) *Server {
	return NewWith(g, Options{})
}

// Registry exposes the graph-space registry (CLI preloading, tests).
func (s *Server) Registry() *registry.Registry { return s.reg }

// Close terminates every space's change feed, unblocking all SSE
// handlers — call it before http.Server.Shutdown so streams drain
// instead of riding out the shutdown timeout.
func (s *Server) Close() { s.reg.Close() }

// Handler returns the route multiplexer. API routes go through the
// observability middleware when configured; /metrics and /debug/pprof
// are deliberately outside it (see handleMetrics and registerPprof).
// The whole mux is wrapped so that its plain-text 404/405 fallbacks are
// rewritten into the JSON error envelope.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.route(mux, "GET /healthz", s.handleHealthz)
	s.route(mux, "GET /graphs", s.handleGraphs)
	s.route(mux, "POST /g/{name}", s.handleCreateGraph)
	s.route(mux, "DELETE /g/{name}", s.handleDeleteGraph)
	s.scoped(mux, "GET", "/version", s.handleVersion)
	s.scoped(mux, "GET", "/stats", s.handleStats)
	s.scoped(mux, "GET", "/kappa", s.handleKappa)
	s.scoped(mux, "GET", "/histogram", s.handleHistogram)
	s.scoped(mux, "POST", "/edges", s.handleEdges)
	s.scoped(mux, "GET", "/core", s.handleCore)
	s.scoped(mux, "GET", "/communities", s.handleCommunities)
	s.scoped(mux, "GET", "/plot.svg", s.handlePlotSVG)
	s.scoped(mux, "GET", "/plot.txt", s.handlePlotText)
	s.scoped(mux, "GET", "/subscribe", s.handleSubscribe)
	s.registerSnapshotRoutes(mux)
	if s.obsReg != nil {
		mux.HandleFunc("GET /metrics", s.handleMetrics)
	}
	if s.tracer != nil {
		mux.HandleFunc("GET /debug/trace", s.handleDebugTrace)
	}
	if s.pprof {
		registerPprof(mux)
	}
	return envelopeErrors(mux)
}

// scoped registers one graph-scoped endpoint twice: under its legacy
// unprefixed pattern (aliasing the default graph) and under the
// /g/{name} tenant prefix. The metrics path label stays the pattern, so
// tenant traffic aggregates under one "/g/{name}/..." label per route —
// request-metric cardinality does not grow with the number of graphs.
func (s *Server) scoped(mux *http.ServeMux, method, path string, h http.HandlerFunc) {
	s.route(mux, method+" "+path, h)
	s.route(mux, method+" /g/{name}"+path, h)
}

// space resolves the graph space a request addresses: the {name} path
// value on tenant routes, or the default graph on legacy unprefixed
// ones. On an unknown graph it writes the 404 envelope and reports
// false.
func (s *Server) space(w http.ResponseWriter, r *http.Request) (*registry.Space, bool) {
	name := r.PathValue("name")
	if name == "" {
		name = registry.DefaultGraph
	}
	sp, ok := s.reg.Get(name)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown graph %q", name)
		return nil, false
	}
	return sp, true
}

// errorReply is the single JSON error envelope of every non-2xx
// response, handler-produced and mux-fallback alike.
type errorReply struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

// envelopeWriter rewrites plain-text error fallbacks (the mux's own 404
// and 405 pages) into the JSON envelope. Handler-produced errors pass
// through untouched: they set an application/json content type before
// writing their status.
type envelopeWriter struct {
	http.ResponseWriter
	suppress bool
}

func (ew *envelopeWriter) WriteHeader(code int) {
	if (code == http.StatusNotFound || code == http.StatusMethodNotAllowed) &&
		!strings.HasPrefix(ew.Header().Get("Content-Type"), "application/json") {
		ew.suppress = true // swallow the original plain-text body
		h := ew.Header()
		h.Set("Content-Type", "application/json")
		h.Del("Content-Length")
		data, _ := json.Marshal(errorReply{Error: http.StatusText(code), Status: code})
		ew.ResponseWriter.WriteHeader(code)
		ew.ResponseWriter.Write(append(data, '\n'))
		return
	}
	ew.ResponseWriter.WriteHeader(code)
}

func (ew *envelopeWriter) Write(p []byte) (int, error) {
	if ew.suppress {
		return len(p), nil
	}
	return ew.ResponseWriter.Write(p)
}

// Flush keeps the SSE streaming path working through the wrapper.
func (ew *envelopeWriter) Flush() {
	if f, ok := ew.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// envelopeErrors wraps next so its default error pages come out in the
// JSON envelope.
func envelopeErrors(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		next.ServeHTTP(&envelopeWriter{ResponseWriter: w}, r)
	})
}

// etagOf renders the entity tag of a response served from sn (and, for
// the bookmark-relative endpoints, bm).
func etagOf(sn *view.Snapshot, bm *view.Snapshot) string {
	if bm != nil {
		return fmt.Sprintf("\"v%d.b%d\"", sn.Version, bm.Version)
	}
	return fmt.Sprintf("\"v%d\"", sn.Version)
}

// preamble stamps the version and ETag headers for a response served
// from sn (pass bm for bookmark-relative bodies) and reports whether the
// request's If-None-Match already names this entity — in which case a
// 304 has been written and the handler must not produce a body.
func preamble(w http.ResponseWriter, r *http.Request, sn *view.Snapshot, bm *view.Snapshot) bool {
	tag := etagOf(sn, bm)
	h := w.Header()
	h.Set("X-Trikcore-Version", strconv.FormatUint(sn.Version, 10))
	h.Set("ETag", tag)
	if inm := r.Header.Get("If-None-Match"); inm != "" && matchesETag(inm, tag) {
		w.WriteHeader(http.StatusNotModified)
		return true
	}
	return false
}

// matchesETag reports whether an If-None-Match header value names tag:
// "*" or any listed (possibly weak) tag equal to it.
func matchesETag(inm, tag string) bool {
	for _, cand := range strings.Split(inm, ",") {
		cand = strings.TrimSpace(cand)
		cand = strings.TrimPrefix(cand, "W/")
		if cand == "*" || cand == tag {
			return true
		}
	}
	return false
}

// writeJSONStatus marshals v and writes it with an explicit status.
func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encode response: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}

// writeJSON marshals v with a 200 status. Marshaling happens before any
// byte reaches the wire, so an encode failure still surfaces as a 500
// instead of a silently truncated 200.
func writeJSON(w http.ResponseWriter, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encode response: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(data, '\n'))
}

// httpError writes the JSON error envelope. The body is marshaled before
// the status line goes out; a two-field struct of printf-rendered text
// cannot fail to encode.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	data, _ := json.Marshal(errorReply{Error: fmt.Sprintf(format, args...), Status: status})
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}

// parseEdge extracts u and v query parameters as a canonical edge.
func parseEdge(r *http.Request) (graph.Edge, error) {
	u, err1 := strconv.ParseInt(r.URL.Query().Get("u"), 10, 32)
	v, err2 := strconv.ParseInt(r.URL.Query().Get("v"), 10, 32)
	if err1 != nil || err2 != nil {
		return graph.Edge{}, fmt.Errorf("u and v must be integer vertex ids")
	}
	if u == v {
		return graph.Edge{}, fmt.Errorf("u and v must differ")
	}
	return graph.NewEdge(graph.Vertex(u), graph.Vertex(v)), nil
}

// VersionReply is the /version response body.
type VersionReply struct {
	Version uint64 `json:"version"`
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	sp, ok := s.space(w, r)
	if !ok {
		return
	}
	sn := sp.Acquire()
	if preamble(w, r, sn, nil) {
		return
	}
	writeJSON(w, VersionReply{Version: sn.Version})
}

// StatsReply is the /stats response body.
type StatsReply struct {
	Vertices int   `json:"vertices"`
	Edges    int   `json:"edges"`
	MaxKappa int32 `json:"maxKappa"`
	// MaxCliqueProxy is MaxKappa+2, the Triangle K-Core estimate of the
	// largest clique order.
	MaxCliqueProxy int32 `json:"maxCliqueProxy"`
	// Updates aggregates engine work counters.
	Updates dynamic.Stats `json:"updates"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	sp, ok := s.space(w, r)
	if !ok {
		return
	}
	sn := sp.Acquire()
	if preamble(w, r, sn, nil) {
		return
	}
	writeJSON(w, StatsReply{
		Vertices:       sn.NumVertices(),
		Edges:          sn.NumEdges(),
		MaxKappa:       sn.MaxK,
		MaxCliqueProxy: sn.MaxCliqueProxy(),
		Updates:        sn.Updates,
	})
}

// KappaReply is the /kappa response body.
type KappaReply struct {
	U            graph.Vertex `json:"u"`
	V            graph.Vertex `json:"v"`
	Kappa        int32        `json:"kappa"`
	CoCliqueSize int32        `json:"coCliqueSize"`
}

func (s *Server) handleKappa(w http.ResponseWriter, r *http.Request) {
	sp, ok := s.space(w, r)
	if !ok {
		return
	}
	e, err := parseEdge(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	sn := sp.Acquire()
	if preamble(w, r, sn, nil) {
		return
	}
	k, ok := sn.KappaOf(e)
	if !ok {
		httpError(w, http.StatusNotFound, "edge %v not in graph", e)
		return
	}
	writeJSON(w, KappaReply{U: e.U, V: e.V, Kappa: k, CoCliqueSize: k + 2})
}

func (s *Server) handleHistogram(w http.ResponseWriter, r *http.Request) {
	sp, ok := s.space(w, r)
	if !ok {
		return
	}
	sn := sp.Acquire()
	if preamble(w, r, sn, nil) {
		return
	}
	out := make(map[string]int, len(sn.Hist))
	for k, n := range sn.Hist {
		if n > 0 {
			out[strconv.Itoa(k)] = n
		}
	}
	writeJSON(w, out)
}

// EdgesRequest is the /edges request body (and the optional seed body of
// POST /g/{name}).
type EdgesRequest struct {
	Add    [][2]graph.Vertex `json:"add"`
	Remove [][2]graph.Vertex `json:"remove"`
}

// EdgesReply is the /edges response body.
type EdgesReply struct {
	Added   int `json:"added"`
	Removed int `json:"removed"`
}

// decodeEdgesBody reads and validates an EdgesRequest from r under the
// space's body-size quota — vertex ids must be non-negative and pairs
// distinct — writing the error envelope (413 on an oversized body, 400
// otherwise) itself on failure.
func decodeEdgesBody(w http.ResponseWriter, r *http.Request, limit int64) (EdgesRequest, bool) {
	if limit <= 0 {
		limit = maxEdgesBody
	}
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	var req EdgesRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", tooBig.Limit)
			return req, false
		}
		httpError(w, http.StatusBadRequest, "bad body: %v", err)
		return req, false
	}
	for _, pairs := range [2][][2]graph.Vertex{req.Add, req.Remove} {
		for _, p := range pairs {
			if p[0] < 0 || p[1] < 0 {
				httpError(w, http.StatusBadRequest, "negative vertex id in [%d,%d]", p[0], p[1])
				return req, false
			}
			if p[0] == p[1] {
				httpError(w, http.StatusBadRequest, "self-loop on vertex %d", p[0])
				return req, false
			}
		}
	}
	return req, true
}

// ops flattens the request into one batch: removals precede additions,
// so an edge named in both ends up present (ApplyBatch lets the later
// op win), matching sequential semantics.
func (req EdgesRequest) ops() []dynamic.EdgeOp {
	ops := make([]dynamic.EdgeOp, 0, len(req.Add)+len(req.Remove))
	for _, p := range req.Remove {
		ops = append(ops, dynamic.EdgeOp{U: p[0], V: p[1], Del: true})
	}
	for _, p := range req.Add {
		ops = append(ops, dynamic.EdgeOp{U: p[0], V: p[1]})
	}
	return ops
}

func (s *Server) handleEdges(w http.ResponseWriter, r *http.Request) {
	sp, ok := s.space(w, r)
	if !ok {
		return
	}
	req, ok := decodeEdgesBody(w, r, sp.MaxBodyBytes())
	if !ok {
		return
	}
	var rep EdgesReply
	var err error
	rep.Added, rep.Removed, err = sp.ApplyContext(r.Context(), req.ops())
	if err != nil {
		var qe *registry.QuotaError
		if errors.As(err, &qe) {
			httpError(w, http.StatusTooManyRequests, "%v", qe)
			return
		}
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("X-Trikcore-Version", strconv.FormatUint(sp.Acquire().Version, 10))
	writeJSON(w, rep)
}

// CoreReply is the /core response body.
type CoreReply struct {
	Kappa    int32             `json:"kappa"`
	Edges    [][2]graph.Vertex `json:"edges"`
	Vertices []graph.Vertex    `json:"vertices"`
}

func (s *Server) handleCore(w http.ResponseWriter, r *http.Request) {
	sp, ok := s.space(w, r)
	if !ok {
		return
	}
	e, err := parseEdge(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	sn := sp.Acquire()
	if preamble(w, r, sn, nil) {
		return
	}
	msp := trace.FromContext(r.Context()).StartSpan("memo.core", "view")
	edges, k, ok := sn.CoreOf(e)
	msp.End()
	if !ok {
		httpError(w, http.StatusNotFound, "edge %v not in graph", e)
		return
	}
	rep := CoreReply{Kappa: k, Vertices: graph.VerticesOf(edges)}
	for _, ce := range edges {
		rep.Edges = append(rep.Edges, [2]graph.Vertex{ce.U, ce.V})
	}
	writeJSON(w, rep)
}

// CommunityReply describes one community in the /communities response.
type CommunityReply struct {
	Edges    int            `json:"edges"`
	Vertices []graph.Vertex `json:"vertices"`
}

func (s *Server) handleCommunities(w http.ResponseWriter, r *http.Request) {
	sp, ok := s.space(w, r)
	if !ok {
		return
	}
	k, err := strconv.ParseInt(r.URL.Query().Get("k"), 10, 32)
	if err != nil || k < 1 {
		httpError(w, http.StatusBadRequest, "k must be a positive integer")
		return
	}
	sn := sp.Acquire()
	if preamble(w, r, sn, nil) {
		return
	}
	msp := trace.FromContext(r.Context()).StartSpan("memo.communities", "view")
	comms := sn.CommunitiesAt(int32(k))
	msp.End()
	out := make([]CommunityReply, 0, len(comms))
	for _, c := range comms {
		out = append(out, CommunityReply{Edges: c.Edges, Vertices: c.Vertices})
	}
	writeJSON(w, out)
}

func (s *Server) handlePlotSVG(w http.ResponseWriter, r *http.Request) {
	sp, ok := s.space(w, r)
	if !ok {
		return
	}
	sn := sp.Acquire()
	if preamble(w, r, sn, nil) {
		return
	}
	msp := trace.FromContext(r.Context()).StartSpan("memo.plot_svg", "view")
	body := sn.PlotSVG()
	msp.End()
	w.Header().Set("Content-Type", "image/svg+xml")
	w.Write(body)
}

func (s *Server) handlePlotText(w http.ResponseWriter, r *http.Request) {
	sp, ok := s.space(w, r)
	if !ok {
		return
	}
	sn := sp.Acquire()
	if preamble(w, r, sn, nil) {
		return
	}
	msp := trace.FromContext(r.Context()).StartSpan("memo.plot_txt", "view")
	body := sn.PlotASCII()
	msp.End()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(body)
}

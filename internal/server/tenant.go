package server

import (
	"errors"
	"net/http"
	"strconv"

	"trikcore/internal/graph"
	"trikcore/internal/registry"
)

// Graph-space lifecycle endpoints:
//
//	GET    /graphs      list hosted graphs with size and version summaries
//	POST   /g/{name}    create a graph space; optional EdgesRequest seed body
//	DELETE /g/{name}    delete a graph space, closing its change feed
//
// Creation failures map to the registry's error taxonomy: 400 for an
// invalid name or a malformed seed, 409 if the name exists, 429 if the
// global graph cap or a seed-size quota is hit, 413 for an oversized
// seed body.

// GraphReply summarizes one hosted graph in the /graphs listing and the
// create response.
type GraphReply struct {
	Name     string `json:"name"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
	Version  uint64 `json:"version"`
	MaxKappa int32  `json:"maxKappa"`
}

// GraphsReply is the /graphs response body.
type GraphsReply struct {
	Graphs []GraphReply `json:"graphs"`
}

func graphReplyOf(sp *registry.Space) GraphReply {
	sn := sp.Acquire()
	return GraphReply{
		Name:     sp.Name(),
		Vertices: sn.NumVertices(),
		Edges:    sn.NumEdges(),
		Version:  sn.Version,
		MaxKappa: sn.MaxK,
	}
}

func (s *Server) handleGraphs(w http.ResponseWriter, r *http.Request) {
	names := s.reg.List()
	rep := GraphsReply{Graphs: make([]GraphReply, 0, len(names))}
	for _, name := range names {
		if sp, ok := s.reg.Get(name); ok {
			rep.Graphs = append(rep.Graphs, graphReplyOf(sp))
		}
	}
	writeJSON(w, rep)
}

func (s *Server) handleCreateGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var g *graph.Graph
	if r.ContentLength != 0 {
		req, ok := decodeEdgesBody(w, r, s.reg.Quotas().MaxBodyBytes)
		if !ok {
			return
		}
		if len(req.Remove) > 0 {
			httpError(w, http.StatusBadRequest, "seed body must not contain removals")
			return
		}
		edges := make([]graph.Edge, len(req.Add))
		for i, p := range req.Add {
			edges[i] = graph.NewEdge(p[0], p[1])
		}
		g = graph.FromEdges(edges)
	}
	sp, err := s.reg.Create(name, g)
	if err != nil {
		httpError(w, createStatus(err), "%v", err)
		return
	}
	w.Header().Set("X-Trikcore-Version", strconv.FormatUint(sp.Acquire().Version, 10))
	writeJSONStatus(w, http.StatusCreated, graphReplyOf(sp))
}

// createStatus maps a registry create failure onto its HTTP status.
func createStatus(err error) int {
	var qe *registry.QuotaError
	switch {
	case errors.Is(err, registry.ErrInvalidName):
		return http.StatusBadRequest
	case errors.Is(err, registry.ErrExists):
		return http.StatusConflict
	case errors.Is(err, registry.ErrRegistryFull), errors.As(err, &qe):
		return http.StatusTooManyRequests
	case errors.Is(err, registry.ErrClosed):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// DeleteReply is the DELETE /g/{name} response body.
type DeleteReply struct {
	Deleted string `json:"deleted"`
}

func (s *Server) handleDeleteGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.reg.Delete(name); err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, DeleteReply{Deleted: name})
}

package server

import (
	"fmt"
	"net/http"
	"strconv"
)

// GET /g/{name}/subscribe — the change feed over Server-Sent Events.
//
// On each snapshot publication the graph's feed turns the batch's κ
// change log into κ promotion/demotion events and adds template-pattern
// events (New Form / Bridge / New Join) found on the batch's new edges;
// this handler frames them as SSE:
//
//	id: <monotone event id>
//	event: kappa | pattern
//	data: <JSON payload>
//
// A reconnecting client sends the standard Last-Event-ID header (or a
// ?last=<id> query parameter, handy with curl) and receives every
// retained event after that id before going live. The stream ends when
// the client disconnects, the graph is deleted, the server shuts down,
// or the client falls too far behind and is dropped — reconnect with
// Last-Event-ID to resume.

// parseLastEventID extracts the resume position: the Last-Event-ID
// header if present, else the ?last= query parameter, else 0.
func parseLastEventID(r *http.Request) (uint64, error) {
	raw := r.Header.Get("Last-Event-ID")
	if raw == "" {
		raw = r.URL.Query().Get("last")
	}
	if raw == "" {
		return 0, nil
	}
	id, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad Last-Event-ID %q: %v", raw, err)
	}
	return id, nil
}

func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	sp, ok := s.space(w, r)
	if !ok {
		return
	}
	lastID, err := parseLastEventID(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	feed := sp.Feed()
	replay, sub := feed.Subscribe(lastID)
	defer feed.Unsubscribe(sub)

	// Handshake comment: gives the client (and curl) immediate bytes
	// confirming the stream, without consuming an event id.
	fmt.Fprintf(w, ": subscribed graph=%s\n\n", sp.Name())
	for _, ev := range replay {
		writeSSE(w, ev.ID, ev.Kind, ev.Data)
	}
	flusher.Flush()

	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case <-sub.Done:
			return
		case evs := <-sub.C:
			// One publication, one flush.
			for _, ev := range evs {
				writeSSE(w, ev.ID, ev.Kind, ev.Data)
			}
			flusher.Flush()
		}
	}
}

// writeSSE frames one event in text/event-stream format.
func writeSSE(w http.ResponseWriter, id uint64, kind string, data []byte) {
	fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", id, kind, data)
}

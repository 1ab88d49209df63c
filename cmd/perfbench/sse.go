package main

import (
	"bytes"
	"context"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// event is one change-feed event as the subscriber read it.
type event struct {
	id   uint64
	kind string
	data []byte
	at   time.Time
}

// subscriber is an in-process SSE client of GET /g/{name}/subscribe. It
// runs the handler on its own goroutine with a ResponseWriter that
// parses each flushed chunk, so a read happens when the server flushes,
// as it would on a socket. Like a real EventSource it reconnects with
// Last-Event-ID whenever the server ends the stream (the feed drops a
// subscriber whose 64-event buffer overflows) and resumes from the
// feed's ring.
type subscriber struct {
	h    http.Handler
	path string

	ready     chan struct{} // closed at the first handshake
	readyOnce sync.Once
	readyAt   time.Time // written before ready closes
	last      atomic.Uint64

	// Owned by the subscriber goroutine until run returns.
	events  []event
	conns   int
	dupes   int
	missing int
	err     error
}

func newSubscriber(h http.Handler, path string) *subscriber {
	return &subscriber{h: h, path: path, ready: make(chan struct{})}
}

// run connects and reconnects until ctx ends.
func (s *subscriber) run(ctx context.Context) {
	for ctx.Err() == nil {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://bench"+s.path, nil)
		if err != nil {
			s.err = err
			return
		}
		if id := s.last.Load(); id > 0 {
			req.Header.Set("Last-Event-ID", strconv.FormatUint(id, 10))
		}
		s.conns++
		s.h.ServeHTTP(&sseWriter{sub: s, hdr: http.Header{}}, req)
	}
}

// drops is how many times the server ended the stream.
func (s *subscriber) drops() int { return max(s.conns-1, 0) }

// receive records one event, enforcing exactly-once, in-order ids.
func (s *subscriber) receive(id uint64, kind string, data []byte, at time.Time) {
	want := s.last.Load() + 1
	switch {
	case id < want:
		s.dupes++
		return
	case id > want:
		s.missing += int(id - want)
	}
	s.events = append(s.events, event{id: id, kind: kind, data: bytes.Clone(data), at: at})
	s.last.Store(id)
}

// sseWriter is the ResponseWriter of one subscribe connection.
type sseWriter struct {
	sub *subscriber
	hdr http.Header
	buf []byte
}

func (w *sseWriter) Header() http.Header { return w.hdr }
func (w *sseWriter) WriteHeader(int)     {}

func (w *sseWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// Flush parses every complete frame written so far.
func (w *sseWriter) Flush() {
	at := time.Now()
	for {
		end := bytes.Index(w.buf, []byte("\n\n"))
		if end < 0 {
			return
		}
		w.frame(w.buf[:end], at)
		w.buf = w.buf[end+2:]
	}
}

func (w *sseWriter) frame(f []byte, at time.Time) {
	var (
		id    uint64
		kind  string
		data  []byte
		hasID bool
	)
	for _, line := range bytes.Split(f, []byte("\n")) {
		switch {
		case bytes.HasPrefix(line, []byte(": subscribed")):
			w.sub.readyOnce.Do(func() {
				w.sub.readyAt = at
				close(w.sub.ready)
			})
		case bytes.HasPrefix(line, []byte("id: ")):
			n, err := strconv.ParseUint(string(line[4:]), 10, 64)
			id, hasID = n, err == nil
		case bytes.HasPrefix(line, []byte("event: ")):
			kind = string(line[7:])
		case bytes.HasPrefix(line, []byte("data: ")):
			data = line[6:]
		}
	}
	if hasID {
		w.sub.receive(id, kind, data, at)
	}
}

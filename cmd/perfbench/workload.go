package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"time"

	"trikcore/internal/graph"
	"trikcore/internal/obs"
	"trikcore/internal/registry"
	"trikcore/internal/server"
	"trikcore/internal/view"
)

// watchedGraph is the space the watched workload uploads and follows.
const watchedGraph = "astro"

// startLead puts a run's first due time just ahead of the clients'
// start, so both open loops share one schedule origin.
const startLead = 5 * time.Millisecond

// call is one request: run is the timed part; check verifies the
// response afterwards, outside the timing.
type call struct {
	run   func()
	check func() bool
}

// stack is the in-process serving stack, configured the way
// `trikcore serve -quiet` runs: metrics registry on, request log and
// flight recorder off.
type stack struct {
	srv    *server.Server
	h      http.Handler
	name   string // graph space the workload targets
	prefix string // its route prefix

	// watched only: the subscriber and the snapshot current when it
	// attached (the κ its events start from).
	sub  *subscriber
	base *view.Snapshot
}

func serverOptions(p *plan) server.Options {
	return server.Options{Registry: obs.NewRegistry(), Workers: p.Workers}
}

func (st *stack) space() (*registry.Space, error) {
	sp, ok := st.srv.Registry().Get(st.name)
	if !ok {
		return nil, fmt.Errorf("graph %q not hosted", st.name)
	}
	return sp, nil
}

// setUpServing loads the edge-list file and builds the server, the way
// `trikcore serve -quiet -in FILE` starts. It returns the elapsed time.
func setUpServing(p *plan) (*stack, time.Duration, error) {
	t0 := time.Now()
	g, err := graph.LoadEdgeListFile(p.GraphFile)
	if err != nil {
		return nil, 0, err
	}
	srv := server.NewWith(g, serverOptions(p))
	st := &stack{srv: srv, h: srv.Handler(), name: registry.DefaultGraph}
	return st, time.Since(t0), nil
}

// setUpWatched starts an empty server and uploads the graph with POST
// /g/{name}. The set-up ends when the subscriber's handshake arrives
// (see subscriber.readyAt); the returned time is the set-up's origin.
// The upload body is read from the plan before the clock starts.
func setUpWatched(p *plan) (*stack, time.Time, error) {
	upload, err := os.ReadFile(uploadFile(p.Dir))
	if err != nil {
		return nil, time.Time{}, err
	}
	t0 := time.Now()
	srv := server.NewWith(graph.New(), serverOptions(p))
	st := &stack{srv: srv, h: srv.Handler(), name: watchedGraph, prefix: "/g/" + watchedGraph}
	rec := httptest.NewRecorder()
	st.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, st.prefix, bytes.NewReader(upload)))
	if rec.Code != http.StatusCreated {
		return nil, t0, fmt.Errorf("upload: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	sp, err := st.space()
	if err != nil {
		return nil, t0, err
	}
	st.base = sp.Acquire()
	st.sub = newSubscriber(st.h, st.prefix+"/subscribe")
	return st, t0, nil
}

// awaitReady waits for the subscriber's first handshake.
func (st *stack) awaitReady() error {
	select {
	case <-st.sub.ready:
		return nil
	case <-time.After(30 * time.Second):
		return errors.New("subscriber handshake did not arrive")
	}
}

// post builds the POST /edges call for b; check verifies the status and
// the added/removed counts, and stores the resulting version in *ver.
func (st *stack) post(b batch, ver *uint64) call {
	body, err := json.Marshal(server.EdgesRequest{Add: b.Add, Remove: b.Remove})
	if err != nil {
		return call{run: func() {}, check: func() bool { return false }}
	}
	req := httptest.NewRequest(http.MethodPost, st.prefix+"/edges", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	return call{
		run: func() { st.h.ServeHTTP(rec, req) },
		check: func() bool {
			var rep server.EdgesReply
			if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &rep) != nil {
				return false
			}
			if ver != nil {
				v, err := strconv.ParseUint(rec.Header().Get("X-Trikcore-Version"), 10, 64)
				if err != nil {
					return false
				}
				*ver = v
			}
			return rep.Added == len(b.Add) && rep.Removed == len(b.Remove)
		},
	}
}

// get builds a GET call; check verifies the status.
func (st *stack) get(path string) call {
	req := httptest.NewRequest(http.MethodGet, st.prefix+path, nil)
	rec := httptest.NewRecorder()
	return call{
		run:   func() { st.h.ServeHTTP(rec, req) },
		check: func() bool { return rec.Code == http.StatusOK },
	}
}

// window is one measured stretch of a run: where each request stream
// resumes, how many open-loop ops it issues, and its length.
type window struct {
	opFrom, opN int
	sideFrom    int
	dur         time.Duration
	log         *spanLog // nil = untraced
	sideLog     *spanLog
}

// outcome is what one window measured.
type outcome struct {
	ops, sides       []sample
	opOpen, sideOpen bool
	// writes is serve's edit stream: load under its reads, timed and
	// checked but in neither measured class.
	writes     []sample
	opEdges    int
	start, end time.Time // window origin and last op completion
	opsDone    int       // primary ops issued (next index)
	sidesDone  int
}

// traced wraps prep so that each call's timed part is recorded as a
// span in log; a nil log returns prep unchanged.
func traced(log *spanLog, name, layer string, prep func(int) call) func(int) call {
	if log == nil {
		return prep
	}
	return func(i int) call {
		c := prep(i)
		run := c.run
		c.run = func() {
			t := time.Now()
			run()
			log.add(name, layer, i, t, time.Now(), "")
		}
		return c
	}
}

// opEdgesOf sums the edge ops of the successful primary samples.
func opEdgesOf(p *plan, ss []sample) int {
	n := 0
	for _, s := range ss {
		if s.ok {
			b := p.opAt(s.idx)
			n += len(b.Add) + len(b.Remove)
		}
	}
	return n
}

func lastDone(ss []sample) time.Time {
	var t time.Time
	for _, s := range ss {
		if s.done.After(t) {
			t = s.done
		}
	}
	return t
}

// warmServe runs serve's warm-up requests back to back.
func warmServe(p *plan, st *stack) int {
	failed := 0
	for i := 0; i < p.Warmup; i++ {
		failed += runChecked(st.post(p.Ops[i], nil))
	}
	for i := 0; i < readWarmup; i++ {
		failed += runChecked(st.get(p.Reads[i]))
	}
	return failed
}

func runChecked(c call) int {
	c.run()
	if c.check() {
		return 0
	}
	return 1
}

// runServe measures serve: a closed-loop reader with think time, whose
// /kappa lookups are the op class and whose /stats and /histogram reads
// are the side class, while open-loop 8+8 writes republish the graph
// underneath it.
func runServe(c clock, p *plan, st *stack, w window) (*outcome, error) {
	o := &outcome{}
	o.start = c.Now().Add(startLead)
	var reads []sample
	err := runClients(
		func() {
			o.writes = openLoop(c, o.start, p.OpRate, w.opFrom, w.opN,
				traced(w.log, "POST /edges", "client", func(i int) call { return st.post(p.Ops[i], nil) }))
		},
		func() {
			waitUntil(c, o.start)
			reads = closedLoop(c, o.start.Add(w.dur), w.sideFrom, len(p.Reads), p.think,
				traced(w.sideLog, "GET", "client", func(i int) call { return st.get(p.Reads[i]) }))
		},
	)
	for _, s := range reads {
		if strings.HasPrefix(p.Reads[s.idx], kappaPath) {
			o.ops = append(o.ops, s)
		} else {
			o.sides = append(o.sides, s)
		}
	}
	o.opsDone, o.sidesDone = w.opFrom+w.opN, w.sideFrom+len(reads)
	o.opEdges, o.end = opEdgesOf(p, o.writes), lastDone(o.writes)
	return o, err
}

// warmIngest runs the first bulk batches and editor batches.
func warmIngest(p *plan, st *stack) int {
	failed := 0
	for k := 0; k < p.Warmup; k++ {
		failed += runChecked(st.post(p.opAt(k), nil))
	}
	for i := 0; i < editWarmup; i++ {
		failed += runChecked(st.post(p.Edits[i], nil))
	}
	return failed
}

// runIngest measures ingest: a closed-loop bulk loader and an editor
// that waits for each edit and thinks before the next, both queueing at
// the single-writer funnel.
func runIngest(c clock, p *plan, st *stack, w window) (*outcome, error) {
	o := &outcome{}
	o.start = c.Now().Add(startLead)
	err := runClients(
		func() {
			waitUntil(c, o.start)
			o.ops = closedLoop(c, o.start.Add(w.dur), w.opFrom, math.MaxInt, p.opThink,
				traced(w.log, "POST /edges bulk", "client", func(k int) call { return st.post(p.opAt(k), nil) }))
		},
		func() {
			waitUntil(c, o.start)
			o.sides = closedLoop(c, o.start.Add(w.dur), w.sideFrom, len(p.Edits), p.think,
				traced(w.sideLog, "POST /edges edit", "client", func(i int) call { return st.post(p.Edits[i], nil) }))
		},
	)
	o.opsDone = w.opFrom + len(o.ops)
	o.sidesDone = w.sideFrom + len(o.sides)
	o.opEdges, o.end = opEdgesOf(p, o.ops), lastDone(o.ops)
	return o, err
}

// runWatched measures watched: open-loop 8+8 writes to the uploaded
// graph while the subscriber follows its feed. The subscriber is
// started by the caller; side samples are derived afterwards.
func runWatched(c clock, p *plan, st *stack, versions []uint64, w window) *outcome {
	o := &outcome{opOpen: true, sideOpen: true}
	o.start = c.Now().Add(startLead)
	o.ops = openLoop(c, o.start, p.OpRate, w.opFrom, w.opN,
		traced(w.log, "POST /g/astro/edges", "client", func(i int) call { return st.post(p.Ops[i], &versions[i]) }))
	o.opsDone = w.opFrom + w.opN
	o.opEdges, o.end = opEdgesOf(p, o.ops), lastDone(o.ops)
	return o
}

// awaitDelivery waits until the subscriber has read every event the
// feed recorded.
func (st *stack) awaitDelivery() error {
	sp, err := st.space()
	if err != nil {
		return err
	}
	want := sp.Feed().LastID()
	deadline := time.Now().Add(30 * time.Second)
	for st.sub.last.Load() < want {
		if time.Now().After(deadline) {
			return fmt.Errorf("subscriber stuck at event %d of %d", st.sub.last.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// deliveries derives watched's side samples: for op i, the time from
// its due time until the subscriber read the last event of the version
// op i published. Called after the subscriber has stopped.
func deliveries(st *stack, versions []uint64, ops []sample) []sample {
	last := map[uint64]time.Time{}
	for _, ev := range st.sub.events {
		var head struct {
			Version uint64 `json:"version"`
		}
		if json.Unmarshal(ev.data, &head) == nil && ev.at.After(last[head.Version]) {
			last[head.Version] = ev.at
		}
	}
	out := make([]sample, 0, len(ops))
	for _, s := range ops {
		at, ok := last[versions[s.idx]]
		out = append(out, sample{idx: s.idx, due: s.due, sent: s.sent, done: at, ok: ok && s.ok})
	}
	return out
}

package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"
)

// childMain runs one measured process: `child MODE DIR [TRACEFILE]`.
// MODE is setup (set up once and report the time), run (the untraced
// measurement) or trace (the traced measurement and layer replays).
func childMain(args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("usage: child setup|run|trace DIR [TRACEFILE]")
	}
	p, err := loadPlan(args[1])
	if err != nil {
		return err
	}
	var rep *childReport
	switch args[0] {
	case "setup":
		rep, err = setupOnly(p)
	case "run":
		rep, err = measure(p)
	case "trace":
		if len(args) < 3 {
			return fmt.Errorf("trace mode needs a trace file")
		}
		rep, err = traceRun(p, args[2])
	default:
		return fmt.Errorf("unknown child mode %q", args[0])
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// session is one workload's program, set up and warmed, plus the
// position reached in each request stream.
type session struct {
	p     *plan
	c     clock
	st    *stack   // serving workloads
	vers  []uint64 // watched: snapshot version each op published
	t0    time.Time
	setup time.Duration

	opNext, sideNext int
	warmFailed       int
}

// open sets the program up. For watched the set-up finishes when the
// subscriber attaches, inside runWindows.
func open(p *plan) (*session, error) {
	s := &session{p: p, c: realClock{}}
	var err error
	switch p.Workload {
	case "serve", "ingest":
		s.st, s.setup, err = setUpServing(p)
	case "watched":
		s.st, s.t0, err = setUpWatched(p)
		s.vers = make([]uint64, len(p.Ops))
	default:
		err = fmt.Errorf("unknown workload %q", p.Workload)
	}
	return s, err
}

// warm runs the workload's warm-up requests, untimed.
func (s *session) warm() {
	p := s.p
	switch p.Workload {
	case "serve":
		s.warmFailed += warmServe(p, s.st)
		s.opNext, s.sideNext = p.Warmup, readWarmup
	case "ingest":
		s.warmFailed += warmIngest(p, s.st)
		s.opNext, s.sideNext = p.Warmup, editWarmup
	case "watched":
		for i := 0; i < p.Warmup; i++ {
			s.warmFailed += runChecked(s.st.post(p.Ops[i], &s.vers[i]))
		}
		s.opNext = p.Warmup
	}
	// Collect set-up and warm-up garbage so every window starts from a
	// comparable heap.
	runtime.GC()
}

// phase is a requested window: its length and whether it is traced.
type phase struct {
	dur    time.Duration
	traced bool
}

// count is how many requests of an open loop at rate fall in dur,
// bounded by what the stream has left.
func count(rate float64, dur time.Duration, from, total int) int {
	return min(int(math.Ceil(rate*dur.Seconds())), total-from)
}

// runWindows warms the program up and runs the windows back to back,
// each continuing the request streams where the previous one stopped.
// logs[i] receives window i's client spans when it is traced.
func (s *session) runWindows(phases []phase, logs []*spanLog) ([]*outcome, error) {
	if s.p.Workload == "watched" {
		return s.runWatchedWindows(phases, logs)
	}
	s.warm()
	var outs []*outcome
	for i, ph := range phases {
		o, err := s.window(ph, logs[i])
		if err != nil {
			return outs, err
		}
		outs = append(outs, o)
	}
	return outs, nil
}

func (s *session) window(ph phase, log *spanLog) (*outcome, error) {
	p := s.p
	w := window{opFrom: s.opNext, sideFrom: s.sideNext, dur: ph.dur}
	if ph.traced {
		w.log, w.sideLog = log, &spanLog{epoch: log.epoch, lane: laneSides}
	}
	var o *outcome
	var err error
	switch p.Workload {
	case "serve":
		w.opN = count(p.OpRate, ph.dur, w.opFrom, len(p.Ops))
		o, err = runServe(s.c, p, s.st, w)
	case "ingest":
		o, err = runIngest(s.c, p, s.st, w)
	}
	if w.sideLog != nil {
		log.spans = append(log.spans, w.sideLog.spans...)
	}
	if o != nil {
		s.opNext, s.sideNext = o.opsDone, max(s.sideNext, o.sidesDone)
	}
	return o, err
}

// runWatchedWindows runs watched's subscriber and op client as the two
// client goroutines; set-up ends when the subscriber attaches.
func (s *session) runWatchedWindows(phases []phase, logs []*spanLog) ([]*outcome, error) {
	ctx, cancel := context.WithCancel(context.Background())
	var outs []*outcome
	var err error
	rerr := runClients(
		func() { s.st.sub.run(ctx) },
		func() {
			defer cancel()
			if err = s.st.awaitReady(); err != nil {
				return
			}
			s.setup = s.st.sub.readyAt.Sub(s.t0)
			s.warm()
			for i, ph := range phases {
				w := window{opFrom: s.opNext, opN: count(s.p.OpRate, ph.dur, s.opNext, len(s.p.Ops))}
				if ph.traced {
					w.log = logs[i]
				}
				o := runWatched(s.c, s.p, s.st, s.vers, w)
				s.opNext = o.opsDone
				outs = append(outs, o)
			}
			err = s.st.awaitDelivery()
		},
	)
	if rerr != nil {
		return nil, rerr
	}
	for _, o := range outs {
		o.sides = deliveries(s.st, s.vers, o.ops)
	}
	return outs, err
}

// check runs the workload's correctness gate on the final state and
// returns the lost/duplicated event count with any failures.
func (s *session) check() (int, []error) {
	p := s.p
	var errs []error
	switch p.Workload {
	case "serve", "watched", "ingest":
		applied := [][]batch{}
		if p.Workload == "ingest" {
			bulk := make([]batch, s.opNext)
			for k := range bulk {
				bulk[k] = p.opAt(k)
			}
			applied = append(applied, bulk, p.Edits[:s.sideNext])
		} else {
			applied = append(applied, p.Ops[:s.opNext])
		}
		g, err := trackedGraph(p, applied...)
		if err != nil {
			return 0, []error{err}
		}
		sp, err := s.st.space()
		if err != nil {
			return 0, []error{err}
		}
		if err := checkServed(sp.Acquire(), g); err != nil {
			errs = append(errs, err)
		}
		if p.Workload == "watched" {
			bad, err := checkFeed(s.st, sp)
			if err != nil {
				errs = append(errs, err)
			}
			return bad, errs
		}
	}
	return 0, errs
}

// tally fills attempted, failed and correct from the windows and the
// checks.
func (s *session) tally(rep *childReport, outs []*outcome, lost int, errs []error) {
	rep.Failed = s.warmFailed + lost
	var writes []sample
	for _, o := range outs {
		rep.OpN += len(o.ops)
		rep.SideN += len(o.sides)
		writes = append(writes, o.writes...)
		for _, ss := range [][]sample{o.ops, o.sides, o.writes} {
			for _, x := range ss {
				rep.Attempted++
				if !x.ok {
					rep.Failed++
				}
			}
		}
	}
	if len(writes) > 0 {
		l := latenciesMS(writes, true)
		rep.Writes = &classSummary{N: len(writes), P50: quantile(l, 0.5), P90: quantile(l, 0.9)}
	}
	for _, err := range errs {
		rep.Errors = append(rep.Errors, err.Error())
	}
	if rep.Failed > 0 && len(errs) == 0 {
		rep.Errors = append(rep.Errors, fmt.Sprintf("%d requests failed", rep.Failed))
	}
	rep.Correct = len(rep.Errors) == 0
}

// setupOnly sets the program up once in this fresh process.
func setupOnly(p *plan) (*childReport, error) {
	s, err := open(p)
	if err != nil {
		return nil, err
	}
	if p.Workload == "watched" {
		ctx, cancel := context.WithCancel(context.Background())
		rerr := runClients(
			func() { s.st.sub.run(ctx) },
			func() {
				defer cancel()
				if err = s.st.awaitReady(); err == nil {
					s.setup = s.st.sub.readyAt.Sub(s.t0)
				}
			},
		)
		if err = errors.Join(rerr, err); err != nil {
			return nil, err
		}
	}
	return &childReport{SetupS: s.setup.Seconds(), Correct: true}, nil
}

// measure is the untraced run: set up, warm up, one window of the
// requested length, the correctness gate.
func measure(p *plan) (*childReport, error) {
	s, err := open(p)
	if err != nil {
		return nil, err
	}
	dur := time.Duration(p.Seconds * float64(time.Second))
	outs, err := s.runWindows([]phase{{dur: dur}}, []*spanLog{nil})
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	rep := &childReport{SetupS: s.setup.Seconds(), Metrics: endToEnd(outs[0], rss)}
	lost, errs := s.check()
	s.tally(rep, outs, lost, errs)
	return rep, nil
}

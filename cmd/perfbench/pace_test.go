package main

import (
	"math"
	"testing"
	"time"
)

// fakeClock advances only when the harness sleeps, yields or does work.
type fakeClock struct {
	t     time.Time
	slack time.Duration // every Sleep overshoots by this much
}

func (f *fakeClock) Now() time.Time        { return f.t }
func (f *fakeClock) Sleep(d time.Duration) { f.t = f.t.Add(d + f.slack) }
func (f *fakeClock) Yield()                { f.t = f.t.Add(time.Microsecond) }

// noThink is the think time of a client that sends as soon as it can.
func noThink(int) time.Duration { return 0 }

// work returns a request builder whose call takes d on the fake clock.
func work(c *fakeClock, d time.Duration) func(int) call {
	return func(int) call {
		return call{run: func() { c.t = c.t.Add(d) }, check: func() bool { return true }}
	}
}

func TestIdleWakeupSlackIsNotCounted(t *testing.T) {
	c := &fakeClock{t: time.Unix(0, 0), slack: 1500 * time.Microsecond}
	ss := openLoop(c, c.t.Add(10*time.Millisecond), 100, 0, 20, work(c, 100*time.Microsecond))
	for _, s := range ss {
		if late := s.sent.Sub(s.due); late != 0 {
			t.Fatalf("request %d sent %v late on an idle client", s.idx, late)
		}
		if got := s.latency(true); got != 100*time.Microsecond {
			t.Fatalf("request %d latency %v, want the 100µs of work", s.idx, got)
		}
	}
}

func TestWaitingBehindABusyClientIsCounted(t *testing.T) {
	c := &fakeClock{t: time.Unix(0, 0)}
	start := c.t
	// 15 ms of work per request, one due every 10 ms: request k waits
	// 5k ms for its predecessors.
	ss := openLoop(c, start, 100, 0, 4, work(c, 15*time.Millisecond))
	for k, s := range ss {
		want := time.Duration(15+5*k) * time.Millisecond
		if got := s.latency(true); got != want {
			t.Errorf("request %d latency %v, want %v", k, got, want)
		}
		if late := s.sent.Sub(s.due); late != time.Duration(5*k)*time.Millisecond {
			t.Errorf("request %d sent %v late, want %v", k, late, time.Duration(5*k)*time.Millisecond)
		}
	}
}

func TestClosedLoopTimesFromSend(t *testing.T) {
	c := &fakeClock{t: time.Unix(0, 0)}
	c.slack = 700 * time.Microsecond
	think := func(int) time.Duration { return 2 * time.Millisecond }
	ss := closedLoop(c, c.t.Add(100*time.Millisecond), 7, 100, think, work(c, 10*time.Millisecond))
	if len(ss) != 8 || ss[0].idx != 7 {
		t.Fatalf("got %d samples from index %d, want 8 from 7", len(ss), ss[0].idx)
	}
	for _, s := range ss {
		if got := s.latency(false); got != 10*time.Millisecond {
			t.Errorf("closed-loop latency %v, want the 10ms of work", got)
		}
		if late := s.sent.Sub(s.due); late != 700*time.Microsecond {
			t.Errorf("closed-loop send %v after its due time, want the 700µs sleep overshoot", late)
		}
	}
	if ss := closedLoop(c, c.t.Add(time.Second), 0, 3, noThink, work(c, time.Millisecond)); len(ss) != 3 {
		t.Errorf("closed loop ran %d requests past its stream of 3", len(ss))
	}
}

func TestClientsNeverExceedNproc(t *testing.T) {
	for _, w := range workloads {
		if w.clients > maxClients {
			t.Errorf("workload %s starts %d client goroutines, budget %d", w.name, w.clients, maxClients)
		}
	}
	ran := 0
	if err := runClients(func() {}, func() {}, func() {}); err == nil {
		t.Fatal("runClients accepted three clients")
	}
	if err := runClients(func() { ran++ }); err != nil || ran != 1 {
		t.Fatalf("runClients with one client: err %v, ran %d", err, ran)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("median %v, want 3", got)
	}
	if got := quantile(xs, 0.9); math.Abs(got-4.6) > 1e-9 {
		t.Errorf("p90 %v, want 4.6", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile %v, want 0", got)
	}
}

package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"
)

// clock is the time source of the request loops; tests inject a fake.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
	Yield()
}

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }
func (realClock) Yield()                { runtime.Gosched() }

// wakeEarly is how far ahead of a due time an open-loop client stops
// sleeping and starts yielding. time.Sleep overshoots by ~0.6 ms at p50
// and ~1 ms at p90 on an idle host, which would bury a 20 µs read;
// waking early and yielding up to the due time keeps idle timer slack
// out of latency while a CPU held by the program still delays the send.
const wakeEarly = 2 * time.Millisecond

// waitUntil blocks until due and returns the instant the request is
// sent.
func waitUntil(c clock, due time.Time) time.Time {
	if d := due.Sub(c.Now()) - wakeEarly; d > 0 {
		c.Sleep(d)
	}
	for {
		now := c.Now()
		if !now.Before(due) {
			return now
		}
		c.Yield()
	}
}

// sample is one timed request. Open-loop latency runs from due;
// closed-loop latency runs from sent, and due is the previous
// request's completion, so sent-due is the client's own overhead.
type sample struct {
	idx             int // index into the class's request stream
	due, sent, done time.Time
	ok              bool
}

func (s sample) latency(open bool) time.Duration {
	if open {
		return s.done.Sub(s.due)
	}
	return s.done.Sub(s.sent)
}

// openLoop issues requests first..first+n-1 at fixed spacing 1/rate
// starting at start, each timed from its due time: a request stuck
// behind a slow predecessor carries that wait in its latency. prep
// builds request i before its due time, outside the timing.
func openLoop(c clock, start time.Time, rate float64, first, n int, prep func(i int) call) []sample {
	out := make([]sample, 0, n)
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
		cl := prep(first + k)
		sent := waitUntil(c, due)
		cl.run()
		done := c.Now()
		out = append(out, sample{idx: first + k, due: due, sent: sent, done: done, ok: cl.check()})
	}
	return out
}

// closedLoop issues requests first, first+1, ... up to last (exclusive)
// until end, request i sent think(i) after the previous one completed
// and was checked. Latency runs from the send; a request's due time is
// the previous completion plus its think time, so sent-due is sleep
// overshoot and the client's own overhead.
func closedLoop(c clock, end time.Time, first, last int, think func(i int) time.Duration, prep func(i int) call) []sample {
	var out []sample
	prev := c.Now()
	for i := first; i < last && prev.Before(end); i++ {
		cl := prep(i)
		due := prev.Add(think(i))
		if d := due.Sub(c.Now()); d > 0 {
			c.Sleep(d)
		}
		sent := c.Now()
		cl.run()
		done := c.Now()
		out = append(out, sample{idx: i, due: due, sent: sent, done: done, ok: cl.check()})
		prev = c.Now()
	}
	return out
}

// runClients runs each client on its own goroutine and waits for all of
// them. It refuses more than maxClients, the nproc budget.
func runClients(clients ...func()) error {
	if len(clients) > maxClients {
		return fmt.Errorf("%d client goroutines exceed the budget of %d", len(clients), maxClients)
	}
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c()
		}()
	}
	wg.Wait()
	return nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// latenciesMS returns the latencies of the successful samples in
// milliseconds.
func latenciesMS(ss []sample, open bool) []float64 {
	out := make([]float64, 0, len(ss))
	for _, s := range ss {
		if s.ok {
			out = append(out, ms(s.latency(open)))
		}
	}
	return out
}

// lateMS returns how late each request was sent, in milliseconds.
func lateMS(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(s.sent.Sub(s.due))
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

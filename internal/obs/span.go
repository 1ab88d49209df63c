package obs

import (
	"time"

	"trikcore/internal/obs/trace"
)

// Span is one timed section feeding a duration histogram and, when it
// was opened by StartStage under a live trace, a flight-recorder span.
// It is a value type: the start captures the clock once, End observes
// the elapsed seconds. A span over a nil histogram (the disabled path,
// or an unknown phase) never reads the clock for it.
type Span struct {
	h  *Histogram
	t0 time.Time
	ts trace.Span
}

// StartSpan opens a span over h. If h is nil the span is inert: End
// returns 0 and observes nothing.
func StartSpan(h *Histogram) Span {
	if h == nil {
		return Span{}
	}
	return Span{h: h, t0: time.Now()}
}

// StartStage opens the timer of one stage boundary: it feeds h when the
// caller is instrumented (h non-nil) and records a span named name in
// category cat when a trace rides the call (tr non-nil). Either half is
// free when absent, so a stage is timed by exactly one call site whatever
// is switched on.
func StartStage(h *Histogram, tr *trace.Trace, name, cat string) Span {
	s := StartSpan(h)
	s.ts = tr.StartSpan(name, cat)
	return s
}

// End closes the span, observes the elapsed time in seconds on the
// histogram, ends the trace span if one is open, and returns the
// histogram's duration (0 when it has none).
func (s Span) End() time.Duration {
	s.ts.End()
	if s.h == nil {
		return 0
	}
	d := time.Since(s.t0)
	s.h.Observe(d.Seconds())
	return d
}

// PhaseTimer annotates the named phases of an algorithm (decomposition's
// freeze/support/peel) with one duration-histogram series per phase,
// label phase="<name>". The phase set is fixed at construction so the
// registry's series inventory — and therefore the exposition — is
// deterministic and the per-phase lookup is allocation-free. A nil
// *PhaseTimer (from a nil registry) is a no-op.
type PhaseTimer struct {
	byPhase map[string]*Histogram
}

// NewPhaseTimer registers one histogram per phase under name (buckets
// DurationBuckets) and returns the timer. With a nil registry it returns
// nil, which every method tolerates.
func NewPhaseTimer(reg *Registry, name, help string, phases ...string) *PhaseTimer {
	if reg == nil {
		return nil
	}
	pt := &PhaseTimer{byPhase: make(map[string]*Histogram, len(phases))}
	for _, ph := range phases {
		pt.byPhase[ph] = reg.Histogram(name, help, DurationBuckets, Labels{"phase": ph})
	}
	return pt
}

// Start opens a span for the named phase. Unknown phases (and nil
// timers) yield an inert span.
func (pt *PhaseTimer) Start(phase string) Span {
	if pt == nil {
		return Span{}
	}
	return StartSpan(pt.byPhase[phase])
}

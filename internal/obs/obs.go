// Package obs is trikcore's zero-dependency observability layer: an
// atomic metrics registry with Prometheus text-format exposition, a
// lightweight span/phase timer for annotating algorithm phases (whose
// StartStage form also records the stage into a flight-recorder trace,
// see obs/trace), and nothing else — no third-party client, no
// background goroutines, no global state.
//
// The design goal is that instrumentation is injectable and free when
// absent. Every metric handle (*Counter, *Gauge, *Histogram) is nil-safe:
// methods on a nil handle do nothing, and Nop() returns a nil *Registry
// whose constructors hand out nil handles, so a library call site writes
//
//	en.mt.promotions.Inc()
//
// unconditionally and pays a single predictable branch when observability
// is disabled — no allocation, no time.Now, no atomics. With a real
// Registry the hot-path cost is one atomic add per event (counters,
// histogram bins are lock-free atomic.Uint64 cells).
//
// Registration is idempotent: asking for the same (name, labels) pair
// returns the same handle, so layers can be wired independently against
// one shared registry. Exposition is deterministic — families sort by
// name, series by their canonical (key-sorted) label signature — which
// lets the serving layer's byte-determinism suite cover /metrics too.
//
// Naming convention (enforced by tests, documented in DESIGN.md §5d):
// trikcore_<subsystem>_<name>_<unit>, counters suffixed _total, duration
// histograms in seconds.
package obs

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
	"sync"
)

// Labels is one metric's label set. Label order never matters: the
// registry keys and renders series by the canonical key-sorted form.
type Labels map[string]string

// metricKind discriminates the three family types.
type metricKind int

const (
	counterKind metricKind = iota
	gaugeKind
	histogramKind
)

func (k metricKind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	case histogramKind:
		return "histogram"
	}
	return "unknown"
}

// Registry holds metric families and hands out live handles. All methods
// are safe for concurrent use; handle methods (Inc, Set, Observe) are
// lock-free. The zero registry is not usable — call NewRegistry — but a
// nil *Registry is: it is the Nop registry, and every constructor on it
// returns a nil (no-op) handle.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family // trikcheck:guardedby mu
}

// family is one metric name: its metadata plus every labeled series.
type family struct {
	name   string
	help   string
	kind   metricKind
	bounds []float64 // histogram families only
	series map[string]*series
}

// series is one (name, labels) instance. Exactly one of c/g/h is set,
// matching the family kind.
type series struct {
	sig string // canonical rendered label block: `` or `{a="x",b="y"}`
	c   *Counter
	g   *Gauge
	h   *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Nop returns the no-op registry: a nil *Registry on which every
// constructor returns a nil handle. All handle methods on nil receivers
// do nothing, so a library instrumented against Nop() runs its hot paths
// untouched.
func Nop() *Registry { return nil }

var (
	nameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// Counter returns the counter named name with the given labels, creating
// it on first use. Re-registration with a different kind or help text
// panics (a programming error, caught by the package tests).
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	if r == nil {
		return nil
	}
	s := r.getOrCreate(name, help, counterKind, nil, labels)
	return s.c
}

// Gauge returns the gauge named name with the given labels, creating it
// on first use.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	if r == nil {
		return nil
	}
	s := r.getOrCreate(name, help, gaugeKind, nil, labels)
	return s.g
}

// Histogram returns the histogram named name with the given labels and
// fixed bucket upper bounds (ascending; +Inf is implicit), creating it on
// first use. Later calls for the same family must pass equal bounds.
func (r *Registry) Histogram(name, help string, bounds []float64, labels Labels) *Histogram {
	if r == nil {
		return nil
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %s bounds not ascending: %v", name, bounds))
		}
	}
	s := r.getOrCreate(name, help, histogramKind, bounds, labels)
	return s.h
}

// getOrCreate resolves (name, labels) to its series, creating family and
// series as needed and validating metadata consistency.
func (r *Registry) getOrCreate(name, help string, kind metricKind, bounds []float64, labels Labels) *series {
	if !nameRe.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	sig := labelSignature(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{
			name:   name,
			help:   help,
			kind:   kind,
			bounds: append([]float64(nil), bounds...),
			series: make(map[string]*series),
		}
		r.families[name] = f
	} else {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s (was %s)", name, kind, f.kind))
		}
		if f.help != help {
			panic(fmt.Sprintf("obs: metric %s re-registered with different help", name))
		}
		if kind == histogramKind && !equalBounds(f.bounds, bounds) {
			panic(fmt.Sprintf("obs: histogram %s re-registered with different bounds", name))
		}
	}
	s := f.series[sig]
	if s == nil {
		s = &series{sig: sig}
		switch kind {
		case counterKind:
			s.c = &Counter{}
		case gaugeKind:
			s.g = &Gauge{}
		case histogramKind:
			s.h = newHistogram(f.bounds)
		}
		f.series[sig] = s
	}
	return s
}

func equalBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// labelSignature renders labels in canonical form: keys sorted, values
// escaped, the whole block braced — or the empty string for no labels.
func labelSignature(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if !labelRe.MatchString(k) {
			panic(fmt.Sprintf("obs: invalid label name %q", k))
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(k)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(labels[k]))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// escapeLabelValue applies the exposition-format escapes: backslash,
// double quote and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var sb strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

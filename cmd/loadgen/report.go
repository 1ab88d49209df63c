package main

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"trikcore/internal/obs"
)

// classRecorder captures one endpoint class's client-side outcomes: a
// log-scaled latency histogram (observed from each op's *scheduled*
// arrival time, so queueing delay under overload counts against the
// server — the open-loop discipline) plus op and error counts.
type classRecorder struct {
	hist   *obs.Histogram
	count  atomic.Uint64
	errors atomic.Uint64 // transport failures and 5xx responses
}

// newRecorders builds one recorder per endpoint class.
func newRecorders() map[string]*classRecorder {
	m := make(map[string]*classRecorder, len(classes))
	for _, c := range classes {
		m[c] = &classRecorder{hist: obs.NewHistogram(obs.LogDurationBuckets)}
	}
	return m
}

// ClassStats is one endpoint class's section of the report. Quantiles
// are upper bounds from the log-scaled histogram (within one bucket
// width, ≈1.6× relative error).
type ClassStats struct {
	Count        uint64  `json:"count"`
	Errors       uint64  `json:"errors"`
	P50Seconds   float64 `json:"p50_seconds"`
	P95Seconds   float64 `json:"p95_seconds"`
	P99Seconds   float64 `json:"p99_seconds"`
	P999Seconds  float64 `json:"p999_seconds"`
	MeanSeconds  float64 `json:"mean_seconds"`
	TotalSeconds float64 `json:"total_seconds"`
}

// stats renders the recorder into its report section.
func (cr *classRecorder) stats() ClassStats {
	n := cr.count.Load()
	s := ClassStats{
		Count:        n,
		Errors:       cr.errors.Load(),
		P50Seconds:   jsonSafe(cr.hist.Quantile(0.50)),
		P95Seconds:   jsonSafe(cr.hist.Quantile(0.95)),
		P99Seconds:   jsonSafe(cr.hist.Quantile(0.99)),
		P999Seconds:  jsonSafe(cr.hist.Quantile(0.999)),
		TotalSeconds: cr.hist.Sum(),
	}
	if n > 0 {
		s.MeanSeconds = s.TotalSeconds / float64(n)
	}
	return s
}

// jsonSafe maps NaN/±Inf (empty histogram, overflow bucket) to -1,
// which encoding/json can carry.
func jsonSafe(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return -1
	}
	return v
}

// SLOVerdict is one latency-objective check in the report.
type SLOVerdict struct {
	Class           string  `json:"class"`
	Quantile        string  `json:"quantile"`
	LimitSeconds    float64 `json:"limit_seconds"`
	ObservedSeconds float64 `json:"observed_seconds"`
	Pass            bool    `json:"pass"`
}

// evalSLOs checks each configured objective against every class that
// saw traffic. An observation of -1 (empty class) passes vacuously; an
// overflow-bucket +Inf estimate fails any finite limit.
func evalSLOs(stats map[string]ClassStats, p99, p999 time.Duration) []SLOVerdict {
	type objective struct {
		name  string
		limit time.Duration
		pick  func(ClassStats) float64
	}
	objectives := []objective{
		{"p99", p99, func(s ClassStats) float64 { return s.P99Seconds }},
		{"p999", p999, func(s ClassStats) float64 { return s.P999Seconds }},
	}
	var out []SLOVerdict
	for _, obj := range objectives {
		if obj.limit <= 0 {
			continue
		}
		for _, c := range classes {
			s, ok := stats[c]
			if !ok || s.Count == 0 {
				continue
			}
			observed := obj.pick(s)
			out = append(out, SLOVerdict{
				Class:           c,
				Quantile:        obj.name,
				LimitSeconds:    obj.limit.Seconds(),
				ObservedSeconds: observed,
				Pass:            observed >= 0 && observed <= obj.limit.Seconds(),
			})
		}
	}
	return out
}

// Report is loadgen's machine-readable output, written to -report and
// merged into BENCH_<stamp>.json by `benchjson -load`.
type Report struct {
	Schema          string                `json:"schema"`
	Addr            string                `json:"addr"`
	Graph           string                `json:"graph,omitempty"`
	Seed            int64                 `json:"seed"`
	Workers         int                   `json:"workers"`
	Rate            string                `json:"rate"`
	Mix             string                `json:"mix"`
	ZipfS           float64               `json:"zipf_s"`
	Vertices        uint64                `json:"vertices"`
	Batch           int                   `json:"batch"`
	DurationSeconds float64               `json:"duration_seconds"`
	OpsSent         uint64                `json:"ops_sent"`
	OpsPerSecond    float64               `json:"ops_per_second"`
	Classes         map[string]ClassStats `json:"classes"`
	SLO             []SLOVerdict          `json:"slo,omitempty"`
	ServerDelta     map[string]float64    `json:"server_metrics_delta,omitempty"`
}

// sloPass reports whether every verdict passed.
func (r *Report) sloPass() bool {
	for _, v := range r.SLO {
		if !v.Pass {
			return false
		}
	}
	return true
}

// summarize renders the human-readable end-of-run lines.
func (r *Report) summarize() string {
	out := fmt.Sprintf("loadgen: %d ops in %.1fs (%.0f ops/s) against %s\n",
		r.OpsSent, r.DurationSeconds, r.OpsPerSecond, r.Addr)
	for _, c := range classes {
		s, ok := r.Classes[c]
		if !ok || s.Count == 0 {
			continue
		}
		out += fmt.Sprintf("  %-15s n=%-8d err=%-5d p50=%s p95=%s p99=%s p999=%s\n",
			c, s.Count, s.Errors,
			fmtLatency(s.P50Seconds), fmtLatency(s.P95Seconds),
			fmtLatency(s.P99Seconds), fmtLatency(s.P999Seconds))
	}
	for _, v := range r.SLO {
		verdict := "PASS"
		if !v.Pass {
			verdict = "FAIL"
		}
		out += fmt.Sprintf("  SLO %-4s %-15s limit=%s observed=%s %s\n",
			v.Quantile, v.Class, fmtLatency(v.LimitSeconds), fmtLatency(v.ObservedSeconds), verdict)
	}
	return out
}

// fmtLatency renders seconds in the natural unit (-1 = no data).
func fmtLatency(s float64) string {
	if s < 0 {
		return "-"
	}
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}

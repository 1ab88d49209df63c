package main

import (
	"encoding/json"
	"os"
	"slices"
	"time"
)

// spanRec is one recorded span: a call the benchmark made into a layer.
type spanRec struct {
	name, layer string
	op          int // request index within its stream
	parent      string
	start, end  time.Time
	lane        int
}

func (r spanRec) dur() time.Duration { return r.end.Sub(r.start) }

// spanLog keeps spans in memory until the run writes them out. One log
// belongs to one goroutine.
type spanLog struct {
	epoch time.Time
	lane  int
	spans []spanRec
}

func (l *spanLog) add(name, layer string, op int, start, end time.Time, parent string) {
	l.spans = append(l.spans, spanRec{name: name, layer: layer, op: op, parent: parent, start: start, end: end, lane: l.lane})
}

// since records a span from start to now and returns its duration.
func (l *spanLog) since(name, layer string, op int, parent string, start time.Time) time.Duration {
	end := time.Now()
	l.add(name, layer, op, start, end, parent)
	return end.Sub(start)
}

// timeSpan runs fn inside a span and returns its duration.
func (l *spanLog) timeSpan(name, layer string, op int, parent string, fn func()) time.Duration {
	t := time.Now()
	fn()
	end := time.Now()
	l.add(name, layer, op, t, end, parent)
	return end.Sub(t)
}

// chromeEvent is one Chrome trace-event ("ph":"X" complete event, times
// in microseconds), the format /debug/trace exports.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes every span of logs as Chrome trace-event JSON,
// ordered by start time. Open it in chrome://tracing or Perfetto.
func writeChrome(path string, logs ...*spanLog) error {
	var evs []chromeEvent
	for _, l := range logs {
		for _, s := range l.spans {
			args := map[string]any{"op": s.op}
			if s.parent != "" {
				args["parent"] = s.parent
			}
			evs = append(evs, chromeEvent{
				Name: s.name, Cat: s.layer, Ph: "X",
				Ts:  float64(s.start.Sub(l.epoch).Nanoseconds()) / 1e3,
				Dur: float64(s.dur().Nanoseconds()) / 1e3,
				Pid: 1, Tid: s.lane, Args: args,
			})
		}
	}
	slices.SortStableFunc(evs, func(a, b chromeEvent) int {
		switch {
		case a.Ts < b.Ts:
			return -1
		case a.Ts > b.Ts:
			return 1
		}
		return 0
	})
	data, err := json.Marshal(map[string]any{"displayTimeUnit": "ms", "traceEvents": evs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

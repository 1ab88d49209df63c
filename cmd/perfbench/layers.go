package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"trikcore/internal/core"
	"trikcore/internal/dynamic"
	"trikcore/internal/graph"
	"trikcore/internal/obs"
	"trikcore/internal/plot"
	"trikcore/internal/registry"
	"trikcore/internal/template"
	"trikcore/internal/view"
)

// Replay sizes: primary ops replayed through each layer (after the
// warm-up ops, which are replayed unrecorded) and repetitions of the
// set-up chain. Fixed counts, so the exact per-op counts repeat.
const (
	replayOps     = 40
	replayOpsBulk = 30
	setupReplays  = 3
)

// Span lanes in the exported trace.
const (
	laneOps = 1 + iota
	laneSides
	laneServer
	laneRegistry
	laneView
	laneDynamic
	laneSetup
)

// traceBlocks is how many blocks the traced mode's client window is cut
// into. Blocks alternate between untraced and traced, so host drift
// during the window falls on both sides of bench.trace_overhead_frac.
const traceBlocks = 8

// traceRun is the traced mode: the workload runs as in the untraced
// run, in blocks that alternate between no spans and a span around
// every client call (the difference between the two is the tracing
// overhead); then the same seeded op stream is replayed, in due-time
// order on fresh state, through each lower layer's public entry point.
func traceRun(p *plan, path string) (*childReport, error) {
	epoch := time.Now()
	opLog := &spanLog{epoch: epoch, lane: laneOps}
	s, err := open(p)
	if err != nil {
		return nil, err
	}
	block := time.Duration(p.Seconds * float64(time.Second) / traceBlocks)
	phases := make([]phase, traceBlocks)
	blockLogs := make([]*spanLog, traceBlocks)
	for i := range phases {
		phases[i] = phase{dur: block, traced: i%2 == 1}
		if phases[i].traced {
			blockLogs[i] = opLog
		}
	}
	outs, err := s.runWindows(phases, blockLogs)
	if err != nil {
		return nil, err
	}
	rep := &childReport{Metrics: map[string]metric{}}
	lost, errs := s.check()
	s.tally(rep, outs, lost, errs)
	lm := layerMetrics{}
	var plain, spanned []*outcome
	var late []float64
	for i, o := range outs {
		if phases[i].traced {
			spanned = append(spanned, o)
		} else {
			plain = append(plain, o)
			late = append(append(append(late, lateMS(o.ops)...), lateMS(o.sides)...), lateMS(o.writes)...)
		}
	}
	if base := quantile(opLatencies(plain), 0.5); base > 0 {
		lm.put("bench.trace_overhead_frac", (quantile(opLatencies(spanned), 0.5)-base)/base, "frac")
	}
	lm.put("bench.late_p90_ms", quantile(late, 0.9), "ms")
	clientDerived(s, spanned, opLog, lm)
	if s.st != nil {
		s.st.srv.Close()
	}
	s = nil
	runtime.GC()

	ls, err := replayServing(p, lm, epoch)
	if err != nil {
		return nil, err
	}
	l, err := replaySetup(p, lm, epoch)
	if err != nil {
		return nil, err
	}
	logs := append(append([]*spanLog{opLog}, ls...), l)
	lm.fillMissing()
	rep.Metrics = lm
	if err := writeChrome(path, logs...); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	return rep, nil
}

// layerMetrics collects the per-layer metrics by name.
type layerMetrics map[string]metric

func (lm layerMetrics) put(name string, v float64, unit string) { lm[name] = metric{v, unit} }

// putDist records the p50 and p90 of xs as name_p50 and name_p90.
func (lm layerMetrics) putDist(name string, xs []float64, unit string) {
	lm.put(name+"_p50", quantile(xs, 0.5), unit)
	lm.put(name+"_p90", quantile(xs, 0.9), unit)
}

// perLayer lists every per-layer metric with its unit. A workload that
// never calls into a layer reports 0 for it.
var perLayer = []struct{ name, unit string }{
	{"server.read_self_us_p50", "us"}, {"server.read_self_us_p90", "us"},
	{"server.write_self_ms_p50", "ms"}, {"server.write_self_ms_p90", "ms"},
	{"registry.apply_self_ms_p50", "ms"}, {"registry.apply_self_ms_p90", "ms"},
	{"registry.events_per_op", "count/op"}, {"registry.drops_per_op", "count/op"},
	{"registry.deliver_ms_p50", "ms"}, {"registry.deliver_ms_p90", "ms"},
	{"registry.writer_wait_ms_p50", "ms"}, {"registry.writer_wait_ms_p90", "ms"},
	{"template.detect_ms_p50", "ms"}, {"template.detect_ms_p90", "ms"},
	{"view.publish_ms_p50", "ms"}, {"view.publish_ms_p90", "ms"},
	{"view.alloc_mb_per_op", "MB/op"},
	{"graph.freeze_ms_p50", "ms"}, {"graph.freeze_ms_p90", "ms"},
	{"graph.load_ms_p50", "ms"}, {"graph.load_ms_p90", "ms"},
	{"dynamic.apply_ms_p50", "ms"}, {"dynamic.apply_ms_p90", "ms"},
	{"dynamic.triangles_per_op", "count/op"}, {"dynamic.edges_visited_per_op", "count/op"},
	{"dynamic.kappa_changes_per_op", "count/op"},
	{"core.support_ms_p50", "ms"}, {"core.support_ms_p90", "ms"},
	{"core.peel_ms_p50", "ms"}, {"core.peel_ms_p90", "ms"},
	{"core.triangles", "count"},
	{"plot.density_ms_p50", "ms"}, {"plot.density_ms_p90", "ms"},
	{"plot.render_ms_p50", "ms"}, {"plot.render_ms_p90", "ms"},
	{"bench.late_p90_ms", "ms"}, {"bench.trace_overhead_frac", "frac"},
}

func (lm layerMetrics) fillMissing() {
	for _, m := range perLayer {
		if _, ok := lm[m.name]; !ok {
			lm.put(m.name, 0, m.unit)
		}
	}
}

// opLatencies pools the primary-op latencies of several windows.
func opLatencies(outs []*outcome) []float64 {
	var xs []float64
	for _, o := range outs {
		xs = append(xs, latenciesMS(o.ops, o.opOpen)...)
	}
	return xs
}

// clientDerived computes the metrics that come from the traced client
// blocks themselves: watched's feed delivery and drops, and the time
// ingest's editor batches spent queued behind a bulk batch.
func clientDerived(s *session, spanned []*outcome, opLog *spanLog, lm layerMetrics) {
	switch s.p.Workload {
	case "watched":
		var deliver []float64
		for _, o := range spanned {
			for i, op := range o.ops {
				if sd := o.sides[i]; sd.ok {
					deliver = append(deliver, ms(sd.done.Sub(op.done)))
				}
			}
		}
		lm.putDist("registry.deliver_ms", deliver, "ms")
		lm.put("registry.drops_per_op", float64(s.st.sub.drops())/float64(s.opNext), "count/op")
	case "ingest":
		var bulk, edits []spanRec
		for _, sp := range opLog.spans {
			if sp.lane == laneOps {
				bulk = append(bulk, sp)
			} else {
				edits = append(edits, sp)
			}
		}
		var wait []float64
		for _, e := range edits {
			w := time.Duration(0)
			for _, b := range bulk {
				if !b.start.After(e.start) && b.end.After(e.start) {
					end := b.end
					if e.end.Before(end) {
						end = e.end
					}
					w = end.Sub(e.start)
				}
			}
			wait = append(wait, ms(w))
		}
		lm.putDist("registry.writer_wait_ms", wait, "ms")
	}
}

// step is one replayed request in due-time order: a primary op (read
// < 0) or a serve read.
type step struct {
	op, read int
}

// replayOrder merges the primary ops after warm-up with serve's reads
// (one per think time, the reader's top rate) by due time, up to the
// replay size.
func replayOrder(p *plan) []step {
	n := replayOps
	if p.OpRate == 0 {
		n = replayOpsBulk
	}
	var out []step
	read := readWarmup
	for k := p.Warmup; k < p.Warmup+n && (p.OpRate == 0 || k < len(p.Ops)); k++ {
		if p.Workload == "serve" {
			due := float64(k-p.Warmup) / p.OpRate
			for read < len(p.Reads) && float64(read-readWarmup)*p.SideThink.Seconds() < due {
				out = append(out, step{op: -1, read: read})
				read++
			}
		}
		out = append(out, step{op: k, read: -1})
	}
	return out
}

// freshSpace builds the workload's serving stack from scratch, with the
// feed armed when the workload arms it, and applies the warm-up ops.
func freshSpace(p *plan) (*stack, *registry.Space, error) {
	var st *stack
	var err error
	if p.Workload == "watched" {
		st, _, err = setUpWatched(p)
	} else {
		st, _, err = setUpServing(p)
	}
	if err != nil {
		return nil, nil, err
	}
	sp, err := st.space()
	if err != nil {
		return nil, nil, err
	}
	if p.Workload == "watched" {
		_, sub := sp.Feed().Subscribe(0)
		sp.Feed().Unsubscribe(sub)
	}
	return st, sp, nil
}

// ops converts a batch into engine ops, removals first (the server's
// order).
func (b batch) ops() []dynamic.EdgeOp {
	out := make([]dynamic.EdgeOp, 0, len(b.Add)+len(b.Remove))
	for _, e := range b.Remove {
		out = append(out, dynamic.EdgeOp{U: e[0], V: e[1], Del: true})
	}
	for _, e := range b.Add {
		out = append(out, dynamic.EdgeOp{U: e[0], V: e[1]})
	}
	return out
}

// replayServing replays the op stream through the server handler,
// registry.Space.Apply, view.Publisher.Apply and the engine, each on
// its own fresh copy of the state. The copies advance in lock step, op
// by op, so the spans of one op id are taken within milliseconds of
// each other and host drift cancels out of their differences; each
// call starts from a collected heap, so where a GC cycle happens to
// fall does not either. A layer's self time is its span minus the next
// layer's span for the same op id.
func replayServing(p *plan, lm layerMetrics, epoch time.Time) ([]*spanLog, error) {
	srvL := &spanLog{epoch: epoch, lane: laneServer}
	regL := &spanLog{epoch: epoch, lane: laneRegistry}
	viewL := &spanLog{epoch: epoch, lane: laneView}
	dynL := &spanLog{epoch: epoch, lane: laneDynamic}

	srvSt, srvSp, err := freshSpace(p)
	if err != nil {
		return nil, err
	}
	defer srvSt.srv.Close()
	regSt, regSp, err := freshSpace(p)
	if err != nil {
		return nil, err
	}
	defer regSt.srv.Close()
	viewSt, viewSp, err := freshSpace(p)
	if err != nil {
		return nil, err
	}
	defer viewSt.srv.Close()
	pub := viewSp.Publisher()
	pub.SetWorkers(p.Workers)
	en, err := freshEngine(p)
	if err != nil {
		return nil, err
	}
	engineApply := func(b batch) {
		if p.Workers > 1 {
			en.ApplyBatchParallel(b.ops(), p.Workers)
		} else {
			en.ApplyBatch(b.ops())
		}
	}

	bad := 0
	for k := 0; k < p.Warmup; k++ {
		b := p.opAt(k)
		bad += runChecked(srvSt.post(b, nil))
		if _, _, err := regSp.Apply(b.ops()); err != nil {
			bad++
		}
		pub.Apply(b.ops())
		engineApply(b)
		en.FreezeView()
	}

	armed := regSp.Feed().Armed()
	stats0 := en.Stats()
	var readSelf, writeSelf, regSelf, pubSelf, dyn, freeze, detect []float64
	var events, nops int
	var allocBytes uint64
	for _, stp := range replayOrder(p) {
		if stp.op < 0 {
			c := srvSt.get(p.Reads[stp.read])
			acq := srvL.timeSpan("registry.Space.Acquire", "registry", stp.read, "server GET", func() { srvSp.Acquire() })
			d := srvL.timeSpan("server GET", "server", stp.read, "", c.run)
			if !c.check() {
				bad++
			}
			readSelf = append(readSelf, float64(d-acq)/float64(time.Microsecond))
			continue
		}
		k, b := stp.op, p.opAt(stp.op)
		nops++
		var post, apply, pubApply, engApply time.Duration
		calls := []func(){
			func() {
				c := srvSt.post(b, nil)
				post = srvL.timeSpan("server POST /edges", "server", k, "", c.run)
				if !c.check() {
					bad++
				}
			},
			func() {
				prev, before := regSp.Acquire(), regSp.Feed().LastID()
				var added, removed int
				var err error
				apply = regL.timeSpan("registry.Space.Apply", "registry", k, "server POST /edges", func() {
					added, removed, err = regSp.Apply(b.ops())
				})
				if err != nil || added != len(b.Add) || removed != len(b.Remove) {
					bad++
				}
				events += int(regSp.Feed().LastID() - before)
				if armed {
					cur := regSp.Acquire()
					detect = append(detect, ms(regL.timeSpan("template.Detect", "template", k, "registry.Space.Apply",
						func() { detectPatterns(prev, cur) })))
				}
			},
			func() {
				a0 := heapAllocs()
				pubApply = viewL.timeSpan("view.Publisher.Apply", "view", k, "registry.Space.Apply", func() { pub.Apply(b.ops()) })
				allocBytes += heapAllocs() - a0
			},
			func() {
				v0 := en.Version()
				engApply = dynL.timeSpan("dynamic.Engine.ApplyBatch", "dynamic", k, "view.Publisher.Apply", func() { engineApply(b) })
				if en.Version() != v0 {
					freeze = append(freeze, ms(dynL.timeSpan("graph.Engine.FreezeView", "graph", k, "view.Publisher.Apply",
						func() { en.FreezeView() })))
				}
			},
		}
		// Rotate which layer goes first, so no layer always runs right
		// after the previous op's calls.
		for i := range calls {
			runtime.GC()
			calls[(i+k)%len(calls)]()
		}

		writeSelf = append(writeSelf, ms(post-apply))
		regSelf = append(regSelf, ms(apply-pubApply))
		pubSelf = append(pubSelf, ms(pubApply-engApply))
		dyn = append(dyn, ms(engApply))
	}
	stats := diffStats(en.Stats(), stats0)
	if bad > 0 {
		return nil, fmt.Errorf("%d replayed requests failed", bad)
	}

	lm.putDist("server.read_self_us", readSelf, "us")
	lm.putDist("server.write_self_ms", writeSelf, "ms")
	lm.putDist("registry.apply_self_ms", regSelf, "ms")
	lm.putDist("template.detect_ms", detect, "ms")
	lm.putDist("view.publish_ms", pubSelf, "ms")
	lm.putDist("graph.freeze_ms", freeze, "ms")
	lm.putDist("dynamic.apply_ms", dyn, "ms")
	n := float64(nops)
	lm.put("registry.events_per_op", float64(events)/n, "count/op")
	lm.put("view.alloc_mb_per_op", float64(allocBytes)/n/(1<<20), "MB/op")
	lm.put("dynamic.triangles_per_op", float64(stats.TrianglesProcessed)/n, "count/op")
	lm.put("dynamic.edges_visited_per_op", float64(stats.EdgesVisited)/n, "count/op")
	lm.put("dynamic.kappa_changes_per_op", float64(stats.Promotions+stats.Demotions)/n, "count/op")
	return []*spanLog{srvL, regL, viewL, dynL}, nil
}

// freshEngine builds the engine the workload's space runs: instrumented
// and from a timed decomposition for the default graph (server.NewWith),
// plain for an uploaded one (registry.Create).
func freshEngine(p *plan) (*dynamic.Engine, error) {
	g, err := graph.LoadEdgeListFile(p.GraphFile)
	if err != nil {
		return nil, err
	}
	if p.Workload == "watched" {
		return dynamic.NewEngine(g), nil
	}
	reg := obs.NewRegistry()
	phases := obs.NewPhaseTimer(reg, "trikcore_core_phase_seconds", "Wall time per decomposition phase.",
		core.PhaseFreeze, core.PhaseSupport, core.PhasePeel)
	en := dynamic.NewEngineFromDecomposition(core.DecomposeWith(g, core.Options{Phases: phases}))
	en.Instrument(reg)
	return en, nil
}

func diffStats(a, b dynamic.Stats) dynamic.Stats {
	return dynamic.Stats{
		Insertions: a.Insertions - b.Insertions, Deletions: a.Deletions - b.Deletions,
		TrianglesProcessed: a.TrianglesProcessed - b.TrianglesProcessed,
		EdgesVisited:       a.EdgesVisited - b.EdgesVisited,
		Promotions:         a.Promotions - b.Promotions, Demotions: a.Demotions - b.Demotions,
	}
}

// detectPatterns is the feed's template detection (Algorithm 4) on one
// publication's snapshot pair: the three Detect calls and their top
// cliques.
func detectPatterns(prev, cur *view.Snapshot) {
	newG := cur.Graph()
	nov := template.Evolving(prev.Graph(), newG)
	for _, spec := range []template.Spec{template.NewForm(nov), template.Bridge(nov), template.NewJoin(nov)} {
		if res := template.Detect(newG, spec); len(res.Characteristic) > 0 {
			res.TopCliques(3, 3)
		}
	}
}

// heapAllocs reads the cumulative bytes allocated on the heap.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// replaySetup repeats the set-up and static chain on the workload's
// graph file: load, freeze, Algorithm 1's support and peel phases, and
// the density plot of the result.
func replaySetup(p *plan, lm layerMetrics, epoch time.Time) (*spanLog, error) {
	l := &spanLog{epoch: epoch, lane: laneSetup}
	var load, support, peel, density, render []float64
	var triangles int64
	for r := 0; r < setupReplays; r++ {
		t := time.Now()
		g, err := graph.LoadEdgeListFile(p.GraphFile)
		load = append(load, ms(l.since("graph.LoadEdgeListFile", "graph", r, "", t)))
		if err != nil {
			return nil, err
		}
		t = time.Now()
		s := graph.FreezeStatic(g)
		l.since("graph.FreezeStatic", "graph", r, "", t)
		t = time.Now()
		sup := core.ComputeSupport(s, 0)
		support = append(support, ms(l.since("core.ComputeSupport", "core", r, "core.DecomposeStatic", t)))
		t = time.Now()
		dec := core.DecomposeWithSupport(s, sup)
		peel = append(peel, ms(l.since("core.DecomposeWithSupport", "core", r, "core.DecomposeStatic", t)))
		vals := coClique(dec.Kappa)
		t = time.Now()
		series := plot.DensityStatic(s, vals)
		density = append(density, ms(l.since("plot.DensityStatic", "plot", r, "", t)))
		t = time.Now()
		plot.RenderSVG(series, plot.SVGOptions{})
		render = append(render, ms(l.since("plot.RenderSVG", "plot", r, "", t)))
		triangles = 0
		for _, x := range sup {
			triangles += int64(x)
		}
		runtime.GC()
	}
	lm.putDist("graph.load_ms", load, "ms")
	lm.putDist("core.support_ms", support, "ms")
	lm.putDist("core.peel_ms", peel, "ms")
	lm.putDist("plot.density_ms", density, "ms")
	lm.putDist("plot.render_ms", render, "ms")
	lm.put("core.triangles", float64(triangles/3), "count")
	return l, nil
}

// coClique maps κ to the co-clique size κ+2 the paper's density plot
// shows.
func coClique(kappa []int32) []int32 {
	vals := make([]int32, len(kappa))
	for i, k := range kappa {
		vals[i] = k + 2
	}
	return vals
}

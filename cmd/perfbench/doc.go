// Command perfbench is trikcore's benchmark: it generates seeded inputs,
// drives one of three workloads against the program in-process, checks
// every output, and prints the workload's end-to-end metrics (or, in
// traced mode, its per-layer metrics) as one JSON line.
//
// # Running
//
// From the repository root:
//
//	bash cmd/perfbench/run.sh --workload serve --seed 1 --seconds 20 --trace 0
//
// run.sh builds this module (its go.mod replaces trikcore with the
// enclosing repository) with the build cache under .bench_build/ and
// runs the binary; everything a run writes stays under .bench_build/.
// The harness tests run with `go test` in this directory.
//
// The last line of standard output is the result:
//
//	{"correct":true,"attempted":8121,"failed":0,"metrics":{"op_p50_ms":{"value":33.1,"unit":"ms"},...}}
//
// The line before it records the run: the host shape (nproc,
// GOMAXPROCS, Go version, CPU model, and the share of CPU time the
// hypervisor stole during the measured process), the seed, the sample
// count of each class, and the workload's graph, rates, batch shapes
// and worker count. A failed correctness check prints correct=false,
// names the check on standard error and exits 1.
//
// Each run generates its inputs (the edge-list file and every request
// body) in the parent process, then measures in fresh child processes:
// one runs set-up, warm-up, the measured window and the correctness
// gate; further ones only set up. setup_s is the median over at least
// five set-ups and at least two seconds of set-up time (at most 15),
// so short set-ups get more samples.
//
// # Workloads
//
// The serving workloads call server.NewWith(...).Handler() directly,
// with no sockets, configured the way `trikcore serve -quiet` runs:
// metrics registry on, request log and flight recorder off. They use at
// most two client goroutines (nproc of the reference host).
//
//	serve      Epinions stand-in (75,879 V / 405,741 E), Workers 1
//	           one reader, closed loop, think 1.25–3.75 ms:
//	           op:   its GET /kappa lookups (80%, Zipf over base edges)
//	           side: its GET /stats and /histogram reads (10% each)
//	           load: POST /edges 8+8, open loop 6/s, republishing the
//	                 graph under the reads (timed as write_latency in
//	                 the run record, not a measured class)
//	ingest     the same graph and load path, Workers 2
//	           op:   POST /edges 1000+1000 bulk batches; closed loop,
//	                 think 10–30 ms
//	           side: an editor's POST /edges 8+8; closed loop, think
//	                 25–75 ms, queueing at the same single writer
//	watched    Astro-Author stand-in at 3% (537 V / 5,729 E), Workers 1,
//	           uploaded with POST /g/astro, followed on /subscribe
//	           op:   POST /g/astro/edges 8+8, open loop 6/s
//	           side: from the op's due time until the subscriber has read
//	                 every event of the version it published
//
// An 8+8 batch inserts 8 edges absent from the graph, with both
// endpoints drawn Zipf(1.1) over vertices ranked by degree, and removes
// the previous batch's 8, so the edge count stays level. An ingest bulk
// batch removes the next 1,000 edges of a seeded permutation of the base
// edges and re-inserts the previous 1,000.
//
// Why each exists:
//
//   - serve: the read path of a large graph under steady write churn.
//     Reads exercise only the server layer; each small edit makes
//     freeze/publish do O(|E|) work while the engine does a small share
//     (ROADMAP item 2's target), which the traced replay splits by
//     layer. The edits' own latency is recorded but not gated: it moved
//     more than any bound allows (see Steadiness rules), so its cost
//     reaches the gated metrics through ingest's editor and op.
//   - ingest: bulk batches on triangle-dense edges make the engine the
//     dominant layer. It is the only workload that runs
//     ApplyBatchParallel; the editor's 8+8 batches sit on the other side
//     of that path's batch-size break-even (ROADMAP item 4) and wait
//     behind bulk batches at the same single-writer funnel.
//   - watched: an armed feed diffs whole snapshots and reruns template
//     detection (Algorithm 4) on every write, so the registry and
//     template layers dominate; every other workload bypasses them.
//     Astro-Author has the strongest triadic closure of the stand-ins,
//     so patterns fire.
//
// Set-up (setup_s) is: serve and ingest, graph.LoadEdgeListFile on the
// generated file then server.NewWith; watched, an empty server, POST
// /g/astro with the graph as a seed body, then the subscriber's
// handshake on GET /g/astro/subscribe. Input generation and warm-up
// are excluded.
//
// # End-to-end metrics
//
//	setup_s            s        set-up time, median over fresh processes
//	op_p50_ms, op_p90_ms      latency of the primary op
//	op_edges_s         edges/s  edge ops applied per second of measured
//	                            wall time; throughput for ingest's closed
//	                            loop, a saturation sentinel for the open
//	                            edit loops of serve and watched
//	side_p50_ms, side_p90_ms  latency of the side class
//	rss_mb             MB       peak resident set (VmHWM) of the measured
//	                            process over set-up and measurement
//
// Open-loop latency runs from the request's due time; closed-loop
// latency runs from its send. attempted counts the requests of the
// measured window; failed counts requests with a wrong status or wrong
// added/removed counts, failed warm-up requests, and lost or duplicated
// feed events.
//
// # Correctness gate
//
//   - serve, ingest, watched: every edge's served κ at the end of the run
//     equals core.DecomposeStatic on the edge set the harness tracked
//     (the base graph plus every applied batch), and the served edge
//     count matches. Every response's status and added/removed counts
//     are checked.
//   - watched: the subscriber saw every event id from 1 to the feed's
//     last exactly once and in order across resumes, and replaying the κ
//     events over the κ it attached at reproduces the final snapshot.
//
// # Layers
//
// Layers are measured only from outside, by timing calls into each
// module's public functions. Each timed metric is reported as p50 and
// p90. A workload that never calls into a layer reports 0 for it.
//
//	module            metrics                                   should move               most work in
//	internal/server   server.read_self_us (GET handler minus     op and side on serve;     serve reads; ingest bodies
//	                  the Space.Acquire it wraps),
//	                  server.write_self_ms (POST handler minus
//	                  Space.Apply: decode and reply)             op_p50_ms on ingest
//	internal/registry registry.apply_self_ms (Space.Apply minus  op and side on watched;   watched; ingest side
//	                  Publisher.Apply: quota, feed diff, fan-out); side_p50_ms on ingest
//	                  registry.events_per_op (exact);
//	                  registry.drops_per_op (race-dependent);
//	                  registry.deliver_ms (subscriber receipt minus
//	                  op completion); registry.writer_wait_ms (the
//	                  part of an editor batch spent behind a bulk one)
//	internal/template template.detect_ms (Evolving plus the three op_p50_ms               watched
//	                  Detect calls on the snapshot pair the feed diffed)
//	internal/view     view.publish_ms (Publisher.Apply minus      side on ingest, rss_mb    serve
//	                  Engine.ApplyBatch); view.alloc_mb_per_op
//	                  (heap allocated per Publisher.Apply)
//	internal/graph    graph.freeze_ms (Engine.FreezeView);         side on ingest; setup_s   serve; every set-up
//	                  graph.load_ms (LoadEdgeListFile)
//	internal/dynamic  dynamic.apply_ms (ApplyBatch, or            op_p50_ms, op_edges_s     ingest
//	                  ApplyBatchParallel at the workload's
//	                  workers); dynamic.triangles_per_op,
//	                  dynamic.edges_visited_per_op,
//	                  dynamic.kappa_changes_per_op (exact Stats deltas)
//	internal/core     core.support_ms (ComputeSupport);            setup_s                   every set-up
//	                  core.peel_ms (DecomposeWithSupport);
//	                  core.triangles (exact)
//	internal/plot     plot.density_ms (DensityStatic);             none (no workload plots)  set-up replay only
//	                  plot.render_ms (RenderSVG)
//	harness           bench.late_p90_ms (how late clients sent);   n/a
//	                  bench.trace_overhead_frac
//
// internal/obs runs inside the server middleware, so its cost is part of
// server self time.
//
// # Traced mode
//
//	bash cmd/perfbench/run.sh --workload watched --seed 1 --seconds 20 --trace 1
//
// The traced mode first runs the workload exactly as the untraced run
// does, in eight blocks that alternate between no spans and a span
// around every client call; the relative change in op p50 from the
// untraced to the traced blocks is bench.trace_overhead_frac.
// Alternating blocks keep host drift out of that difference; what is
// left is noise of a few percent around a true cost of two clock reads
// per call. It then replays the same seeded op stream,
// in due-time order and with fixed counts, through each lower layer's
// public entry point, each on its own fresh copy of the state:
// the handler (serve's reads interleaved by due time), registry
// Space.Apply (feed armed only where the workload arms it, with the
// feed's template detection re-run on each snapshot pair),
// view.Publisher.Apply (SetWorkers as the workload), and
// dynamic.Engine.ApplyBatch or ApplyBatchParallel followed by
// FreezeView. The copies advance in lock step, op by op, in rotating
// order and each call starts from a collected heap, so host drift and GC
// placement cancel out of the per-op differences. A layer's self time is
// its span minus the next layer's span for the same op id. Set-ups are
// replayed three times as LoadEdgeListFile, FreezeStatic,
// ComputeSupport, DecomposeWithSupport, DensityStatic and RenderSVG on
// the workload's graph, so Algorithm 1 and the density plot get layer
// numbers on every workload.
//
// Spans stay in memory and are written when the run ends, as Chrome
// trace-event JSON (the format /debug/trace exports), to
// .bench_build/perfbench/trace-<workload>-seed<n>.json; the run line
// names the file. Open it in chrome://tracing or https://ui.perfetto.dev.
// Lane 1 holds the first client's calls (the writer or bulk loader), 2
// the second client's (the reader or editor), 3–6 the
// server, registry, view and engine replays, 7 the set-up replay; each
// span carries its op id and the layer that calls it.
//
// The exact counts (dynamic.*_per_op, registry.events_per_op,
// core.triangles) repeat exactly across traced runs of one seed.
// End-to-end metrics come only from untraced runs, and the program's own
// flight recorder stays off. Self times of thin layers (server write
// self, registry self outside watched) are a few tens of microseconds on
// top of ~25 ms publishes that vary by a few milliseconds op to op, so
// they read as noise around zero; they resolve only where the layer does
// real work (watched's feed). Splitting a layer further (engine stages,
// decode vs encode) needs spans inside the program.
//
// # Steadiness rules
//
// Each rule is traced to a measurement on the 2-vCPU reference host or
// to an earlier benchmark design for this repository:
//
//   - Latency start. Open-loop latency runs from the due time. time.Sleep
//     overshoots by ~0.6 ms at p50 and ~1 ms at p90 even on an idle host,
//     which would bury a 20–40 µs read, so open-loop clients wake 2 ms
//     early and yield up to the due time: waiting for a CPU the program
//     holds counts, idle timer slack does not (see the tests).
//   - Side clients are closed loops. On the reference host two busy
//     threads lose ~9% of wall time to hypervisor steal, mostly in
//     4–20 ms gaps, so ~9% of open-loop read due times fall in a gap:
//     read p90 from the due time sat on that cliff and ranged 0.06–3.1 ms
//     across seeds while read service time p90 stayed at 0.041–0.043 ms
//     in the same runs. An open-loop editor at 5/s queued behind its own
//     late requests whenever bulk batches slowed, which doubled its p90
//     spread (0.31 vs 0.13 for the bulk ops). serve's reader and ingest's
//     editor therefore wait for each reply and think a seeded uniform
//     time (random, so the editor cannot phase-lock with the bulk
//     loader), and their latency runs from the send.
//   - The bulk loader pauses too. Sending the next bulk batch the moment
//     the last one returned let it win the writer lock back from an
//     editor that had been woken at the unlock but not yet scheduled, so
//     some edits waited out two bulk batches: editor p90 read 108–159 ms
//     across three runs of one seed (spread 0.45). A seeded 10–30 ms
//     pause between bulk batches leaves the lock to the waiting editor;
//     editor p90 spread fell to 0.20 across four seeds on a drifting
//     host.
//   - Long writes, not short ones. Steal arrives in 4–20 ms gaps, so an
//     op of a few milliseconds meets one in only a minority of samples
//     and its p90 sits on that cliff: serve on a 10% Epinions graph
//     (40k edges, writes at 20/s) read write p90 4.9–10.5 ms across
//     three runs, while the full graph, alternating with it, read
//     45–49 ms. A ~30 ms write meets a gap in most samples, so its
//     percentiles move with the steal share instead of jumping.
//   - One op shape per class. Every edit in a class has the same
//     shape: alternating forward and inverse bulk batches once split
//     Publisher.Apply into a ~15 ms and a ~179 ms mode with the median
//     between them. serve's side class mixes two reads, /stats and
//     /histogram, both answered from maintained counters; its spread
//     was 0.09–0.11 over ten seeds.
//   - serve's writes are load, not a class. Their p90 from the due time
//     spread 0.12, 0.32 and 0.33 across three sets of ten seeds, twice
//     over the 0.25 bound, while serve's reads spread at most 0.14: each
//     edit allocates ~19 MB, so GC cycles every few writes and its mark
//     phase, stretched by steal, lands on a varying share of them.
//     Reads of the same runs moved by at most 8% between sets.
//   - p50 and p90, not p99: write p99 on serve ranged 36.7–42.9 ms across
//     three runs while p50 stayed within 15.7–16.0 ms. Each class
//     collects at least 100 samples per 20 s run, so p90 has ten samples
//     beyond it: watched runs 6/s on a 3% graph (at 25% a write took
//     460–620 ms here, ~50 ms at 3%).
//   - No capacity search (one moved 9% between identical runs) and no
//     tiny single-shot quantity (a 23 ms set-up moved 13%): set-ups load
//     from a file or an upload, the way users do, and are sampled until
//     two seconds of set-up time. watched's upload of the 3% graph takes
//     only ~15 ms, so its setup_s is the median of 15 fresh processes.
//   - Inputs first. Edge-list files and request streams are generated
//     before the measured process starts, so rss_mb and GC pacing
//     reflect the program. Warm-up requests are dropped and the heap is
//     collected before the window; every run uses fresh processes.
//   - The feed defect stays visible. Hub-skewed 8+8 edits produce ~150
//     feed events per publication, more than the 64-event subscriber
//     buffer, so the feed drops the subscriber on nearly every write
//     (registry.drops_per_op ≈ 1). The subscriber behaves like a real SSE
//     client: on a drop it reconnects with Last-Event-ID and resumes from
//     the ring, and lost or duplicated events count as failures.
//
// Host drift remains and sets the bounds. The reference host is a 2-vCPU
// guest whose neighbours come and go, and every timed metric follows the
// share of CPU time the hypervisor steals (recorded per run as
// steal_frac). In one set of ten runs of a dropped decompose workload
// (below), op p50 read 49 ms at 0.5% steal and 85 ms at 22.5%,
// near-linearly in between; watched's write p50 read 41 ms at 0.1% and
// 55 ms at 2.9%. A fixed single-threaded memory-bound loop, timed alone,
// took 74–105 ms per pass across consecutive two-second windows with at
// most 3% steal, so neighbours slow the host even when they leave the
// CPU. Sampling error is a small part of the spread: a p90 from 120
// samples is good to about ±4%. Repeated sets of ten seeds per workload
// gave IQR/median spreads of 0.04–0.24 on quiet stretches; serve's write
// p90 (0.12, 0.32, 0.33 over three sets) is why serve's writes are not
// gated. Ops of 40–60 ms are the most exposed to steal bursts, which is
// why a fourth workload, decompose (Algorithm 1 and the density plot in
// a closed loop on a 25% Epinions graph, ~50 ms per op), was dropped: in
// one set three of ten of its runs met 13–23% steal, which lifted their
// op p90 to 81–128 ms against 54–69 ms for the rest and spread it 0.50
// (0.58 in another set), while their p50 moved 15–25%. A bigger graph
// leaves fewer than 100 samples per 20 s run, and a smaller one puts p90
// on the same cliff (as serve's writes on a 10% graph showed). watched's
// writes (~45 ms) share the exposure but stayed within bound (0.21,
// 0.24, 0.12 over three sets). So every timed end-to-end metric carries
// a bound of 0.25, the most the benchmark contract allows, and rss_mb,
// which moves only with GC pacing, 0.2. Results taken while steal_frac
// exceeds a few percent are not comparable with quiet ones.
//
// # Known gaps
//
//   - Algorithm 1 and the density plot have no workload of their own
//     (see Steadiness rules): they reach the end-to-end metrics only
//     through serve's and ingest's setup_s, and get layer numbers from
//     the traced set-up replay.
//   - internal/extcore, the memoized artifact endpoints (/plot.svg,
//     /communities, /core, the dual views) and a clustered-graph bulk
//     workload are not measured.
//     On the Astro-Author stand-in bulk batches once ran ~25% slower at
//     Workers 2 than at Workers 1, so work on ROADMAP item 4 must
//     measure that case separately.
//   - The feed's burst-drop behaviour is reported, not fixed.
//   - Layer self times come from separate replays and resolve only
//     layers that do more than the replay noise (see Traced mode).
package main

package main

import (
	"encoding/gob"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"time"

	"trikcore/internal/dataset"
	"trikcore/internal/graph"
	"trikcore/internal/server"
)

// workload is one traffic mix: the graph it runs on and the shape and
// pacing of its two request classes. A rate of 0 means a closed loop.
type workload struct {
	name     string
	dataset  string  // Table I stand-in (internal/dataset)
	fraction float64 // GenerateAt fraction; 1 = the full stand-in
	workers  int     // server.Options.Workers
	opRate   float64 // primary ops per second (0 = closed loop)
	opBatch  int     // edges inserted (and removed) per primary op
	// opThink and sideThink are the mean think times of closed-loop
	// clients: after each reply a client waits a seeded uniform draw
	// from [mean/2, 3·mean/2] before its next request.
	opThink, sideThink time.Duration
	warmup             int // leading primary ops run untimed before the window
	clients            int // client goroutines the run starts
}

// maxClients is the client goroutine budget: nproc of the reference
// host. No workload may start more.
const maxClients = 2

// zipfS skews endpoint and edge choice; 1.1 matches cmd/loadgen.
const zipfS = 1.1

var workloads = []workload{
	{name: "serve", dataset: "Epinions", fraction: 1, workers: 1,
		opRate: 6, opBatch: 8, sideThink: 2500 * time.Microsecond, warmup: 3, clients: 2},
	{name: "ingest", dataset: "Epinions", fraction: 1, workers: 2,
		opRate: 0, opBatch: 1000, opThink: 20 * time.Millisecond, sideThink: 50 * time.Millisecond, warmup: 2, clients: 2},
	{name: "watched", dataset: "Astro-Author", fraction: 0.03, workers: 1,
		opRate: 6, opBatch: 8, warmup: 3, clients: 2},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// batch is one POST /edges body. Removals are applied before additions.
type batch struct {
	Add, Remove [][2]graph.Vertex
}

// plan is a run's complete input, generated from the seed by the parent
// process and handed to the measured child as a file, so that neither
// generation time nor generator memory lands in the measurement.
type plan struct {
	Workload string
	Seed     int64
	Seconds  float64
	Dir      string // work directory holding the plan and graph files

	Dataset   string
	Fraction  float64
	GraphFile string // edge-list file of the base graph
	Vertices  int
	Edges     int

	Workers   int
	OpRate    float64
	OpBatch   int
	OpThink   time.Duration
	SideThink time.Duration
	Warmup    int

	// Ops is the primary op stream. Closed loops (ingest) run Ops[0]
	// once and then cycle Ops[1:]; open loops run it in order.
	Ops []batch
	// Edits are ingest's editor batches and Reads serve's side GET
	// paths; Thinks[i] is the side client's pause before request i and
	// OpThinks[k] the closed-loop primary client's before op k.
	Edits    []batch
	Reads    []string
	Thinks   []time.Duration
	OpThinks []time.Duration
}

// think is the side client's pause before request i.
func (p *plan) think(i int) time.Duration { return p.Thinks[i] }

// opThink is the closed-loop primary client's pause before op k.
func (p *plan) opThink(k int) time.Duration { return p.OpThinks[k%len(p.OpThinks)] }

// opAt returns primary op k of the (possibly cyclic) stream.
func (p *plan) opAt(k int) batch {
	if p.OpRate > 0 || k == 0 {
		return p.Ops[k]
	}
	return p.Ops[1+(k-1)%(len(p.Ops)-1)]
}

// openCount is how many requests an open loop at rate issues in the
// measured window, plus the warm-up ones before it.
func openCount(rate, seconds float64, warmup int) int {
	return warmup + int(math.Ceil(rate*seconds))
}

// sideCount bounds how many requests a closed-loop side client can
// issue in the window: one per shortest think time, plus warm-up.
func sideCount(w workload, seconds float64, warmup int) int {
	return openCount(2/w.sideThink.Seconds(), seconds, warmup)
}

// thinkTimes draws n think times uniformly from [mean/2, 3·mean/2].
// The spread keeps a closed-loop client from phase-locking with a
// periodic writer.
func thinkTimes(rng *rand.Rand, n int, mean time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = mean/2 + time.Duration(rng.Int63n(int64(mean)))
	}
	return out
}

// baseGraph builds the workload's stand-in graph (deterministic; the
// dataset's own seed, not the run seed, fixes it). The result is shared
// by the dataset cache and must not be mutated.
func baseGraph(w workload) (*graph.Graph, error) {
	d, ok := dataset.ByName(w.dataset)
	if !ok {
		return nil, fmt.Errorf("unknown dataset %q", w.dataset)
	}
	if w.fraction == 1 {
		return d.Graph(), nil
	}
	return d.GenerateAt(w.fraction), nil
}

// makePlan generates every input of one run into dir.
func makePlan(w workload, seed int64, seconds float64, dir string) (*plan, error) {
	g, err := baseGraph(w)
	if err != nil {
		return nil, err
	}
	p := &plan{
		Workload: w.name, Seed: seed, Seconds: seconds, Dir: dir,
		Dataset: w.dataset, Fraction: w.fraction,
		GraphFile: filepath.Join(dir, "graph.txt"),
		Vertices:  g.NumVertices(), Edges: g.NumEdges(),
		Workers: w.workers, OpRate: w.opRate, OpBatch: w.opBatch,
		OpThink: w.opThink, SideThink: w.sideThink, Warmup: w.warmup,
	}
	if err := graph.SaveEdgeListFile(p.GraphFile, g); err != nil {
		return nil, err
	}
	base := sortedEdges(g)
	rng := rand.New(rand.NewSource(seed))
	switch w.name {
	case "serve":
		p.Ops = freshBatches(g, rand.New(rand.NewSource(rng.Int63())), openCount(w.opRate, seconds, w.warmup), w.opBatch)
		p.Reads = readPaths(base, rand.New(rand.NewSource(rng.Int63())), sideCount(w, seconds, readWarmup))
		p.Thinks = thinkTimes(rand.New(rand.NewSource(rng.Int63())), len(p.Reads), w.sideThink)
	case "ingest":
		p.Ops = bulkBatches(base, rand.New(rand.NewSource(rng.Int63())), w.opBatch)
		p.Edits = freshBatches(g, rand.New(rand.NewSource(rng.Int63())), sideCount(w, seconds, editWarmup), editBatch)
		p.Thinks = thinkTimes(rand.New(rand.NewSource(rng.Int63())), len(p.Edits), w.sideThink)
		p.OpThinks = thinkTimes(rand.New(rand.NewSource(rng.Int63())), len(p.Ops), w.opThink)
	case "watched":
		p.Ops = freshBatches(g, rand.New(rand.NewSource(rng.Int63())), openCount(w.opRate, seconds, w.warmup), w.opBatch)
		up := server.EdgesRequest{Add: make([][2]graph.Vertex, len(base))}
		for i, e := range base {
			up.Add[i] = [2]graph.Vertex{e.U, e.V}
		}
		body, err := json.Marshal(up)
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(uploadFile(dir), body, 0o644); err != nil {
			return nil, err
		}
	}
	f, err := os.Create(filepath.Join(dir, "plan.gob"))
	if err != nil {
		return nil, err
	}
	defer f.Close() // error paths; the success path checks Close below
	if err := gob.NewEncoder(f).Encode(p); err != nil {
		return nil, err
	}
	return p, f.Close()
}

func uploadFile(dir string) string { return filepath.Join(dir, "upload.json") }

// Warm-up counts of the side classes, and the editor's batch size.
const (
	readWarmup = 200
	editWarmup = 2
	editBatch  = 8
)

func loadPlan(dir string) (*plan, error) {
	f, err := os.Open(filepath.Join(dir, "plan.gob"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var p plan
	if err := gob.NewDecoder(f).Decode(&p); err != nil {
		return nil, fmt.Errorf("decode plan: %w", err)
	}
	return &p, nil
}

func sortedEdges(g *graph.Graph) []graph.Edge {
	es := g.Edges()
	slices.SortFunc(es, func(a, b graph.Edge) int {
		if a.Less(b) {
			return -1
		}
		if b.Less(a) {
			return 1
		}
		return 0
	})
	return es
}

// degreeRanked lists g's vertices by descending degree (ties by id), so
// a Zipf draw over positions favours hubs.
func degreeRanked(g *graph.Graph) []graph.Vertex {
	vs := g.Vertices()
	slices.SortFunc(vs, func(a, b graph.Vertex) int {
		if da, db := g.Degree(a), g.Degree(b); da != db {
			return db - da
		}
		return int(a) - int(b)
	})
	return vs
}

// freshBatches generates n edit batches of one shape: batch i inserts
// size edges absent from the graph, with Zipf-skewed endpoints over
// degree-ranked vertices, and removes batch i-1's insertions, so the
// edge count stays level. Batch 0 only inserts; it is always warm-up.
func freshBatches(g *graph.Graph, rng *rand.Rand, n, size int) []batch {
	verts := degreeRanked(g)
	z := rand.NewZipf(rng, zipfS, 1, uint64(len(verts)-1))
	out := make([]batch, n)
	var prev [][2]graph.Vertex
	for i := range out {
		// New edges avoid the batch being removed: re-adding one in the
		// same body would cancel both ops and change the batch's shape.
		avoid := make(map[graph.Edge]bool, 2*size)
		for _, p := range prev {
			avoid[graph.NewEdge(p[0], p[1])] = true
		}
		cur := make([][2]graph.Vertex, 0, size)
		for len(cur) < size {
			u, v := verts[z.Uint64()], verts[z.Uint64()]
			if u == v || g.HasEdge(u, v) {
				continue
			}
			e := graph.NewEdge(u, v)
			if avoid[e] {
				continue
			}
			avoid[e] = true
			cur = append(cur, [2]graph.Vertex{e.U, e.V})
		}
		out[i] = batch{Add: cur, Remove: prev}
		prev = cur
	}
	return out
}

// bulkBatches cuts a seeded permutation of the base edges into blocks
// of size and returns the cyclic bulk-loader stream: entry 0 removes the
// last block; entry j+1 removes block j and re-inserts block j-1, so
// exactly one block is absent at any time. A partial trailing block is
// left untouched so every batch has one shape.
func bulkBatches(base []graph.Edge, rng *rand.Rand, size int) []batch {
	perm := rng.Perm(len(base))
	nb := len(base) / size
	block := func(j int) [][2]graph.Vertex {
		out := make([][2]graph.Vertex, size)
		for i := range out {
			e := base[perm[j*size+i]]
			out[i] = [2]graph.Vertex{e.U, e.V}
		}
		return out
	}
	blocks := make([][][2]graph.Vertex, nb)
	for j := range blocks {
		blocks[j] = block(j)
	}
	out := []batch{{Remove: blocks[nb-1]}}
	for j := 0; j < nb; j++ {
		out = append(out, batch{Remove: blocks[j], Add: blocks[(j+nb-1)%nb]})
	}
	return out
}

// kappaPath is serve's point lookup, its op class; the other reads are
// its side class.
const kappaPath = "/kappa"

// readPaths generates serve's read stream: 80% /kappa on a Zipf-chosen
// base edge (never removed by serve's writes), 10% /stats, 10%
// /histogram.
func readPaths(base []graph.Edge, rng *rand.Rand, n int) []string {
	order := rng.Perm(len(base))
	z := rand.NewZipf(rng, zipfS, 1, uint64(len(base)-1))
	out := make([]string, n)
	for i := range out {
		switch r := rng.Intn(10); {
		case r < 8:
			e := base[order[z.Uint64()]]
			out[i] = fmt.Sprintf("%s?u=%d&v=%d", kappaPath, e.U, e.V)
		case r == 8:
			out[i] = "/stats"
		default:
			out[i] = "/histogram"
		}
	}
	return out
}

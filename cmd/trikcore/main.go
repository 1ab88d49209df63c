// Command trikcore is the command-line interface to the Triangle K-Core
// library: decomposition, density plots, incremental updates and template
// pattern detection over edge-list files.
//
// Usage:
//
//	trikcore stats     -in graph.txt
//	trikcore decompose -in graph.txt [-top 10] [-k 3]
//	trikcore decompose -in graph.tkcg -external -mem-budget 262144 [-k 3]
//	trikcore plot      -in graph.txt [-format ascii|svg] [-out plot.svg]
//	trikcore update    -in graph.txt -ops ops.txt
//	trikcore template  -old old.txt -new new.txt -pattern new-form|bridge|new-join
//	trikcore hierarchy -in graph.txt [-min-edges 3]
//	trikcore dualview  -old old.txt -new new.txt [-svg outdir]
//	trikcore events    -old old.txt -new new.txt -k 3
//	trikcore convert   -in graph.txt -out graph.tkcg [-to text|binary|csr]
//	trikcore gen       -dataset Astro-Author -scale 0.2 -out astro.txt
//	trikcore serve     -in graph.txt -addr :8080 [-pprof] [-quiet]
//	                   [-graphs name=file,...] [-max-graphs N]
//	                   [-max-vertices N] [-max-edges N] [-max-body-bytes N]
//	                   [-shutdown-timeout 5s]
//
// Edge-list files hold one "u v" pair of non-negative vertex ids per
// line ('#' comments allowed).
// Ops files hold one "+ u v" or "- u v" per line.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"trikcore"
	"trikcore/internal/core"
	"trikcore/internal/obs/trace"
	"trikcore/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "trikcore:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: trikcore <stats|decompose|plot|update|template|hierarchy|dualview|events|convert|gen|serve> [flags]")
	}
	switch args[0] {
	case "stats":
		return cmdStats(args[1:])
	case "decompose":
		return cmdDecompose(args[1:])
	case "plot":
		return cmdPlot(args[1:])
	case "update":
		return cmdUpdate(args[1:])
	case "template":
		return cmdTemplate(args[1:])
	case "hierarchy":
		return cmdHierarchy(args[1:])
	case "dualview":
		return cmdDualView(args[1:])
	case "events":
		return cmdEvents(args[1:])
	case "convert":
		return cmdConvert(args[1:])
	case "gen":
		return cmdGen(args[1:])
	case "serve":
		return cmdServe(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	in := fs.String("in", "", "input edge-list file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := trikcore.LoadEdgeListFile(*in)
	if err != nil {
		return err
	}
	fmt.Printf("vertices:  %d\n", g.NumVertices())
	fmt.Printf("edges:     %d\n", g.NumEdges())
	fmt.Printf("triangles: %d\n", trikcore.TriangleCount(g))
	d := trikcore.Decompose(g)
	fmt.Printf("max κ:     %d (max clique proxy %d)\n", d.MaxKappa, d.MaxKappa+2)
	kc := trikcore.VertexKCore(g)
	fmt.Printf("degeneracy: %d\n", kc.MaxCore)
	return nil
}

func cmdDecompose(args []string) error {
	fs := flag.NewFlagSet("decompose", flag.ContinueOnError)
	in := fs.String("in", "", "input file (.txt edge list or .tkcg CSR)")
	top := fs.Int("top", 10, "print the top-N edges by κ")
	k := fs.Int("k", -1, "also list triangle-connected communities at level k")
	external := fs.Bool("external", false, "out-of-core decomposition: partitioned bottom-up peel under -mem-budget")
	memBudget := fs.Int64("mem-budget", 0, "resident peel-state budget in bytes for -external (0 = unbounded)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *external {
		return decomposeExternal(*in, *memBudget, *top, *k)
	}
	g, err := loadGraphFile(*in)
	if err != nil {
		return err
	}
	d := trikcore.Decompose(g)
	printKappaReport(d.S, d.Kappa, *top, *k)
	return nil
}

// decomposeExternal is the -external arm of cmdDecompose: .tkcg inputs
// are mmap'd (never parsed onto the heap) and the peel runs partitioned
// under the byte budget. Only the peel differs from the in-memory arm;
// the report is the same function of (view, κ), so the two can be
// diffed.
func decomposeExternal(in string, budget int64, top, k int) error {
	s, closer, err := loadStaticFile(in)
	if err != nil {
		return err
	}
	if closer != nil {
		defer closer.Close()
	}
	res, err := trikcore.DecomposeExternal(s, trikcore.ExternalOptions{MemBudget: budget})
	if err != nil {
		return err
	}
	printKappaReport(s, res.Kappa, top, k)
	st := res.Stats
	fmt.Fprintf(os.Stderr,
		"trikcore: external peel: %d partitions, %d levels, %d sweeps, %d activations, %d spill records (%d bytes), peak resident %d bytes\n",
		st.Partitions, st.Levels, st.Sweeps, st.Activations, st.SpillRecords, st.SpillBytes, st.PeakResidentBytes)
	return nil
}

// loadGraphFile loads either format into a mutable graph.
func loadGraphFile(path string) (*trikcore.Graph, error) {
	if strings.HasSuffix(path, ".tkcg") {
		return trikcore.LoadBinaryFile(path)
	}
	return trikcore.LoadEdgeListFile(path)
}

// loadStaticFile produces a frozen view of the input: mapped .tkcg
// files alias the page cache (the closer unmaps them), text edge lists
// are parsed and frozen.
func loadStaticFile(path string) (*trikcore.StaticGraph, interface{ Close() error }, error) {
	if strings.HasSuffix(path, ".tkcg") {
		m, err := trikcore.OpenMapped(path)
		if err == nil {
			return m.Static(), m, nil
		}
		if !errors.Is(err, trikcore.ErrCorruptGraphFile) {
			// Snapshot-layout .tkcg: fall back to parsing it.
			g, gerr := trikcore.LoadBinaryFile(path)
			if gerr != nil {
				return nil, nil, gerr
			}
			return trikcore.FreezeGraph(g), nil, nil
		}
		return nil, nil, err
	}
	g, err := trikcore.LoadEdgeListFile(path)
	if err != nil {
		return nil, nil, err
	}
	return trikcore.FreezeGraph(g), nil, nil
}

// printKappaReport prints the κ distribution, the top-N edges by κ
// (ties by edge) and, for k ≥ 0, the level-k communities of a frozen
// view under κ indexed by its edge ids — whichever peel produced κ.
func printKappaReport(s *trikcore.StaticGraph, kappa []int32, top, k int) {
	hist := make(map[int32]int)
	all := make([]edgeKappa, len(kappa))
	for i, kv := range kappa {
		hist[kv]++
		all[i] = edgeKappa{s.EdgeAt(int32(i)), kv}
	}
	var ks []int32
	for kv := range hist {
		ks = append(ks, kv)
	}
	slices.Sort(ks)
	fmt.Println("κ distribution:")
	for _, kv := range ks {
		fmt.Printf("  κ=%-4d %d edges\n", kv, hist[kv])
	}

	sort.Slice(all, func(i, j int) bool {
		if all[i].k != all[j].k {
			return all[i].k > all[j].k
		}
		return all[i].e.Less(all[j].e)
	})
	top = min(top, len(all))
	fmt.Printf("top %d edges:\n", top)
	for _, x := range all[:top] {
		fmt.Printf("  %-12s κ=%d\n", x.e, x.k)
	}

	if k >= 0 {
		comms := core.Communities(s, kappa, int32(k))
		fmt.Printf("communities at k=%d: %d\n", k, len(comms))
		for i, c := range comms {
			fmt.Printf("  community %d: %d edges\n", i+1, len(c))
		}
	}
}

// edgeKappa pairs an edge (original vertex ids) with its κ for the
// top-N report.
type edgeKappa struct {
	e trikcore.Edge
	k int32
}

func cmdPlot(args []string) error {
	fs := flag.NewFlagSet("plot", flag.ContinueOnError)
	in := fs.String("in", "", "input edge-list file")
	format := fs.String("format", "ascii", "ascii, svg or csv")
	out := fs.String("out", "", "output file (default stdout)")
	width := fs.Int("width", 100, "ascii plot width")
	height := fs.Int("height", 20, "ascii plot height")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := trikcore.LoadEdgeListFile(*in)
	if err != nil {
		return err
	}
	s := trikcore.DensityPlot(g, trikcore.Decompose(g))
	var rendered string
	switch *format {
	case "ascii":
		rendered = trikcore.RenderASCII(s, *width, *height)
	case "svg":
		rendered = trikcore.RenderSVG(s, trikcore.SVGOptions{Title: *in})
	case "csv":
		var sb strings.Builder
		if err := s.WriteCSV(&sb); err != nil {
			return err
		}
		rendered = sb.String()
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
	if *out == "" {
		fmt.Print(rendered)
		return nil
	}
	return os.WriteFile(*out, []byte(rendered), 0o644)
}

func cmdUpdate(args []string) error {
	fs := flag.NewFlagSet("update", flag.ContinueOnError)
	in := fs.String("in", "", "input edge-list file")
	ops := fs.String("ops", "", "operations file: '+ u v' inserts, '- u v' deletes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := trikcore.LoadEdgeListFile(*in)
	if err != nil {
		return err
	}
	f, err := os.Open(*ops)
	if err != nil {
		return err
	}
	defer f.Close()
	// Parse the whole ops file into one batch; ApplyBatch dedups repeated
	// mentions of an edge (last op wins) and applies deletions first.
	var batch []trikcore.EdgeOp
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 3 {
			return fmt.Errorf("ops line %d: want '<+|-> u v'", line)
		}
		u, err1 := strconv.ParseInt(fields[1], 10, 32)
		v, err2 := strconv.ParseInt(fields[2], 10, 32)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("ops line %d: bad vertex", line)
		}
		if u < 0 || v < 0 {
			return fmt.Errorf("ops line %d: negative vertex id", line)
		}
		if u == v {
			return fmt.Errorf("ops line %d: self-loop on vertex %d", line, u)
		}
		switch fields[0] {
		case "+":
			batch = append(batch, trikcore.EdgeOp{U: trikcore.Vertex(u), V: trikcore.Vertex(v)})
		case "-":
			batch = append(batch, trikcore.EdgeOp{U: trikcore.Vertex(u), V: trikcore.Vertex(v), Del: true})
		default:
			return fmt.Errorf("ops line %d: unknown op %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	en := trikcore.NewEngine(g)
	added, removed := en.ApplyBatch(batch)
	st := en.Stats()
	fmt.Printf("applied %d insertions, %d deletions\n", added, removed)
	fmt.Printf("triangles processed: %d, edges visited: %d\n", st.TrianglesProcessed, st.EdgesVisited)
	fmt.Printf("promotions: %d, demotions: %d\n", st.Promotions, st.Demotions)
	fmt.Printf("edges now: %d, max κ: %d\n", en.NumEdges(), en.MaxKappa())
	return nil
}

func cmdTemplate(args []string) error {
	fs := flag.NewFlagSet("template", flag.ContinueOnError)
	oldPath := fs.String("old", "", "old snapshot edge-list file")
	newPath := fs.String("new", "", "new snapshot edge-list file")
	pattern := fs.String("pattern", "new-form", "new-form, bridge or new-join")
	top := fs.Int("top", 3, "report the top-N pattern cliques")
	if err := fs.Parse(args); err != nil {
		return err
	}
	old, err := trikcore.LoadEdgeListFile(*oldPath)
	if err != nil {
		return err
	}
	new, err := trikcore.LoadEdgeListFile(*newPath)
	if err != nil {
		return err
	}
	nov := trikcore.EvolvingNovelty(old, new)
	var spec trikcore.TemplateSpec
	switch *pattern {
	case "new-form":
		spec = trikcore.NewFormPattern(nov)
	case "bridge":
		spec = trikcore.BridgePattern(nov)
	case "new-join":
		spec = trikcore.NewJoinPattern(nov)
	default:
		return fmt.Errorf("unknown pattern %q", *pattern)
	}
	res := trikcore.DetectTemplate(new, spec)
	fmt.Printf("characteristic triangles: %d\n", len(res.Characteristic))
	fmt.Printf("possible triangles:       %d\n", len(res.Possible))
	fmt.Printf("special subgraph:         %d vertices, %d edges\n",
		res.Special.NumVertices(), res.Special.NumEdges())
	for i, pk := range res.TopCliques(*top, 3) {
		fmt.Printf("pattern clique %d: %d vertices at co_clique_size %d: %v\n",
			i+1, pk.Width(), pk.Height, pk.Vertices)
	}
	return nil
}

func cmdHierarchy(args []string) error {
	fs := flag.NewFlagSet("hierarchy", flag.ContinueOnError)
	in := fs.String("in", "", "input edge-list file")
	minEdges := fs.Int("min-edges", 1, "hide communities with fewer edges")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := trikcore.LoadEdgeListFile(*in)
	if err != nil {
		return err
	}
	d := trikcore.Decompose(g)
	roots := d.Hierarchy()
	if len(roots) == 0 {
		fmt.Println("no triangles: empty hierarchy")
		return nil
	}
	var render func(n *trikcore.HierarchyNode, indent string)
	render = func(n *trikcore.HierarchyNode, indent string) {
		if n.Size() < *minEdges {
			return
		}
		verts := n.Vertices()
		fmt.Printf("%sk=%d: %d edges, %d vertices", indent, n.K, n.Size(), len(verts))
		if len(verts) <= 12 {
			fmt.Printf(" %v", verts)
		}
		fmt.Println()
		for _, c := range n.Children {
			render(c, indent+"  ")
		}
	}
	for _, r := range roots {
		render(r, "")
	}
	return nil
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	in := fs.String("in", "", "edge-list file for the default graph (optional; empty graph if omitted)")
	addr := fs.String("addr", ":8080", "listen address")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	quiet := fs.Bool("quiet", false, "disable per-request structured logs")
	workers := fs.Int("workers", 1, "worker goroutines for parallel batch maintenance (1 = serial)")
	graphs := fs.String("graphs", "", "additional graphs to host, comma-separated name=edgelist pairs")
	maxGraphs := fs.Int("max-graphs", 0, "cap on hosted graph spaces (0 = default 64, negative = unlimited)")
	maxVertices := fs.Int("max-vertices", 0, "per-graph vertex quota (0 = unlimited)")
	maxEdges := fs.Int("max-edges", 0, "per-graph edge quota (0 = unlimited)")
	maxBody := fs.Int64("max-body-bytes", 0, "per-request write body cap in bytes (0 = default 16 MiB)")
	drain := fs.Duration("shutdown-timeout", 5*time.Second, "graceful shutdown drain timeout")
	traceRing := fs.Int("trace-ring", 0, "flight-recorder retention per ring (0 = tracing off); serves GET /debug/trace")
	slowMS := fs.Duration("slow-ms", 0, "log traced requests at least this slow (0 = off; needs -trace-ring)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts := server.Options{
		Pprof:     *pprofOn,
		Workers:   *workers,
		MaxGraphs: *maxGraphs,
		Quotas: trikcore.GraphQuotas{
			MaxVertices:  *maxVertices,
			MaxEdges:     *maxEdges,
			MaxBodyBytes: *maxBody,
		},
	}
	if *traceRing > 0 {
		topts := trace.Options{Ring: *traceRing, SlowThreshold: *slowMS}
		if *slowMS > 0 {
			topts.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
		}
		opts.Trace = trace.New(topts)
	}
	srv, err := buildServer(*in, opts, *quiet)
	if err != nil {
		return err
	}
	if err := preloadGraphs(srv, *graphs); err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "trikcore: serving on %s (metrics on /metrics)\n", *addr)

	select {
	case err := <-errc:
		return err // listener failed before any signal
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second ^C kills immediately
	fmt.Fprintf(os.Stderr, "trikcore: shutting down (drain timeout %s)\n", *drain)
	// End every SSE stream first — a change-feed subscriber would
	// otherwise hold Shutdown open until the timeout expired.
	srv.Close()
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return errors.Join(err, hs.Close())
	}
	return nil
}

// preloadGraphs creates the -graphs spaces: "name=file" pairs, comma
// separated.
func preloadGraphs(srv *server.Server, spec string) error {
	if spec == "" {
		return nil
	}
	for _, pair := range strings.Split(spec, ",") {
		name, path, ok := strings.Cut(pair, "=")
		if !ok {
			return fmt.Errorf("bad -graphs entry %q, want name=file", pair)
		}
		g, err := trikcore.LoadEdgeListFile(path)
		if err != nil {
			return err
		}
		if _, err := srv.Registry().Create(name, g); err != nil {
			return err
		}
	}
	return nil
}

// buildServer loads the optional initial graph and wraps it in the HTTP
// service as the default graph space. Served instances are always
// metered (GET /metrics); request logging and pprof are flag-controlled.
func buildServer(in string, opts server.Options, quiet bool) (*server.Server, error) {
	g := trikcore.NewGraph()
	if in != "" {
		loaded, err := trikcore.LoadEdgeListFile(in)
		if err != nil {
			return nil, err
		}
		g = loaded
	}
	opts.Registry = trikcore.NewMetricsRegistry()
	if !quiet {
		opts.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	return server.NewWith(g, opts), nil
}

// cmdConvert translates between the text edge-list format and the two
// .tkcg layouts, inferring direction from extensions unless -to is
// given. Text → csr streams through BuildMappedFile in two passes
// without materializing the edge set, so inputs larger than RAM
// convert in O(|V|) resident space.
func cmdConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ContinueOnError)
	in := fs.String("in", "", "input file (.txt edge list or .tkcg)")
	out := fs.String("out", "", "output file")
	to := fs.String("to", "", "output format: text, binary (varint snapshot) or csr (mmap-friendly; default for .tkcg output)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("convert needs -in and -out")
	}
	format := *to
	if format == "" {
		if strings.HasSuffix(*out, ".tkcg") {
			format = "csr"
		} else {
			format = "text"
		}
	}
	if format == "csr" && !strings.HasSuffix(*in, ".tkcg") {
		st, err := trikcore.ConvertEdgeListToCSR(*in, *out)
		if err != nil {
			return err
		}
		fmt.Printf("converted %d vertices, %d edges to %s (%s)\n", st.Vertices, st.Edges, *out, format)
		return nil
	}
	g, err := loadGraphFile(*in)
	if err != nil {
		return err
	}
	switch format {
	case "csr":
		err = trikcore.SaveCSRFile(*out, trikcore.FreezeGraph(g))
	case "binary":
		err = trikcore.SaveBinaryFile(*out, g)
	case "text":
		err = trikcore.SaveEdgeListFile(*out, g)
	default:
		return fmt.Errorf("unknown format %q", format)
	}
	if err != nil {
		return err
	}
	fmt.Printf("converted %d vertices, %d edges to %s (%s)\n", g.NumVertices(), g.NumEdges(), *out, format)
	return nil
}

// cmdGen materializes one of the paper's Table I dataset stand-ins as
// an edge-list file, for pipelines (and CI) that need a deterministic
// paper-scale fixture without shipping one.
func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	name := fs.String("dataset", "", "Table I dataset name (see -list)")
	scale := fs.Float64("scale", 1, "fraction of the stand-in's target size to generate")
	out := fs.String("out", "", "output edge-list file")
	list := fs.Bool("list", false, "list available datasets and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, d := range trikcore.Datasets() {
			fmt.Printf("%-14s target |V|=%d |E|=%d  %s\n", d.Name, d.TargetV(), d.TargetE(), d.Description)
		}
		return nil
	}
	if *name == "" || *out == "" {
		return fmt.Errorf("gen needs -dataset and -out (or -list)")
	}
	d, ok := trikcore.DatasetByName(*name)
	if !ok {
		return fmt.Errorf("unknown dataset %q (try gen -list)", *name)
	}
	if *scale <= 0 || *scale > 1 {
		return fmt.Errorf("-scale %g outside (0, 1]", *scale)
	}
	g := d.GenerateAt(*scale)
	if err := trikcore.SaveEdgeListFile(*out, g); err != nil {
		return err
	}
	fmt.Printf("generated %s at scale %g: %d vertices, %d edges to %s\n",
		d.Name, *scale, g.NumVertices(), g.NumEdges(), *out)
	return nil
}

// cmdEvents classifies community evolution between two snapshots.
func cmdEvents(args []string) error {
	fs := flag.NewFlagSet("events", flag.ContinueOnError)
	oldPath := fs.String("old", "", "old snapshot edge-list file")
	newPath := fs.String("new", "", "new snapshot edge-list file")
	k := fs.Int("k", 2, "community level (κ ≥ k)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	old, err := trikcore.LoadEdgeListFile(*oldPath)
	if err != nil {
		return err
	}
	new, err := trikcore.LoadEdgeListFile(*newPath)
	if err != nil {
		return err
	}
	oldC, newC, evs := trikcore.DetectEvents(old, new, int32(*k), trikcore.EventOptions{})
	fmt.Printf("communities at k=%d: %d old, %d new\n", *k, len(oldC), len(newC))
	for _, e := range evs {
		fmt.Printf("  %-9s", e.Type)
		for _, i := range e.Before {
			fmt.Printf(" old#%d(%dv)", i, len(oldC[i].Vertices))
		}
		if len(e.Before) > 0 && len(e.After) > 0 {
			fmt.Print(" →")
		}
		for _, j := range e.After {
			fmt.Printf(" new#%d(%dv)", j, len(newC[j].Vertices))
		}
		fmt.Println()
	}
	return nil
}

// cmdDualView builds the Algorithm 3 dual-view plots between two
// snapshots and reports the correspondence markers.
func cmdDualView(args []string) error {
	fs := flag.NewFlagSet("dualview", flag.ContinueOnError)
	oldPath := fs.String("old", "", "old snapshot edge-list file")
	newPath := fs.String("new", "", "new snapshot edge-list file")
	top := fs.Int("top", 3, "number of changed structures to mark")
	outDir := fs.String("svg", "", "directory for before/after SVG plots (optional)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	old, err := trikcore.LoadEdgeListFile(*oldPath)
	if err != nil {
		return err
	}
	new, err := trikcore.LoadEdgeListFile(*newPath)
	if err != nil {
		return err
	}
	dv := trikcore.BuildDualView(old, new, trikcore.DualViewOptions{TopK: *top})
	fmt.Print(dv.Summary())
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		before := trikcore.RenderSVG(dv.Before, trikcore.SVGOptions{
			Title: "before (all cliques)", Markers: dv.BeforeMarkersForSVG()})
		after := trikcore.RenderSVG(dv.After, trikcore.SVGOptions{
			Title: "after (changed cliques)", Markers: dv.MarkersForSVG()})
		if err := os.WriteFile(filepath.Join(*outDir, "before.svg"), []byte(before), 0o644); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(*outDir, "after.svg"), []byte(after), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s and %s\n", filepath.Join(*outDir, "before.svg"), filepath.Join(*outDir, "after.svg"))
	}
	return nil
}

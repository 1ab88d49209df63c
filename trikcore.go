// Package trikcore is a Go implementation of Triangle K-Core motifs for
// probing, analyzing and visualizing clique-like structure in static and
// dynamic graphs, reproducing:
//
//	Yang Zhang, Srinivasan Parthasarathy.
//	"Extracting, Analyzing and Visualizing Triangle K-Core Motifs within
//	Networks." ICDE 2012.
//
// A Triangle K-Core is a subgraph in which every edge participates in at
// least k triangles of the subgraph; the maximum Triangle K-Core number
// κ(e) of an edge is a cheap, exact proxy for the size of the largest
// clique the edge participates in (co_clique_size ≈ κ+2). This package is
// the public facade over the implementation packages:
//
//   - Decompose computes κ(e) for every edge in O(|triangles|)
//     (Algorithm 1 of the paper).
//   - NewEngine maintains κ(e) incrementally under edge insertions and
//     deletions (Algorithm 2 / Algorithms 5–7).
//   - DensityPlot and BuildDualView render CSV-style clique-distribution
//     plots and dynamic dual-view plots (Algorithm 3).
//   - DetectTemplate finds user-defined template pattern cliques — New
//     Form, Bridge, New Join, or custom specs (Algorithm 4).
//   - NewPublisher wraps an engine in a versioned snapshot publisher:
//     one writer, immutable published Snapshots, lock-free readers with
//     per-version memoized plots and communities (the HTTP service's
//     concurrency model).
//   - VertexKCore, MaximalCliques, CSVCoCliqueSizes, TriDN and BiTriDN
//     expose the substrate and baseline algorithms the paper compares
//     against.
//
// See the examples directory for runnable walkthroughs and cmd/experiments
// for the reproduction of every table and figure of the paper.
package trikcore

import (
	"io"

	"trikcore/internal/clique"
	"trikcore/internal/core"
	"trikcore/internal/csvbaseline"
	"trikcore/internal/dataset"
	"trikcore/internal/dngraph"
	"trikcore/internal/dynamic"
	"trikcore/internal/events"
	"trikcore/internal/extcore"
	"trikcore/internal/graph"
	"trikcore/internal/kcore"
	"trikcore/internal/obs"
	"trikcore/internal/plot"
	"trikcore/internal/registry"
	"trikcore/internal/template"
	"trikcore/internal/view"
)

// Core graph types.
type (
	// Graph is a mutable undirected simple graph.
	Graph = graph.Graph
	// Vertex identifies a graph vertex.
	Vertex = graph.Vertex
	// Edge is an undirected edge in canonical (U < V) form.
	Edge = graph.Edge
	// Triangle is an unordered vertex triple in canonical form.
	Triangle = graph.Triangle
	// Diff describes the edit between two graph snapshots.
	Diff = graph.Diff
)

// Algorithm result types.
type (
	// Decomposition holds κ(e) for every edge of a decomposed graph.
	Decomposition = core.Decomposition
	// Engine maintains κ(e) incrementally under edge updates.
	Engine = dynamic.Engine
	// EdgeOp is one edge insertion or deletion for Engine.ApplyBatch.
	EdgeOp = dynamic.EdgeOp
	// EngineStats aggregates the work counters of an Engine.
	EngineStats = dynamic.Stats
	// Series is a density plot: vertices in traversal order with heights.
	Series = plot.Series
	// Peak is a flat plateau of a density plot (a potential clique).
	Peak = plot.Peak
	// EdgeValues assigns plotted co-clique sizes to edges.
	EdgeValues = plot.EdgeValues
	// DualView pairs two density plots with correspondence markers.
	DualView = plot.DualView
	// DualViewOptions configure BuildDualView.
	DualViewOptions = plot.DualViewOptions
	// PlotComparison quantifies the similarity of two density plots.
	PlotComparison = plot.Comparison
	// TemplateSpec defines a template clique pattern (Algorithm 4).
	TemplateSpec = template.Spec
	// TemplateResult is the output of DetectTemplate.
	TemplateResult = template.Result
	// Novelty classifies edges/vertices as new vs original for the
	// built-in template patterns.
	Novelty = template.Novelty
	// HierarchyNode is a community in the nested Triangle K-Core
	// hierarchy (Decomposition.Hierarchy).
	HierarchyNode = core.HierarchyNode
	// KCoreDecomposition holds vertex K-Core numbers (Definition 1–2).
	KCoreDecomposition = kcore.Decomposition
	// DNGraphResult holds converged valid λ̄ values from TriDN/BiTriDN.
	DNGraphResult = dngraph.Result
)

// NewGraph returns an empty graph.
func NewGraph() *Graph { return graph.New() }

// NewEdge returns the canonical undirected edge {u, v}.
func NewEdge(u, v Vertex) Edge { return graph.NewEdge(u, v) }

// NewTriangle returns the canonical triangle {a, b, c}.
func NewTriangle(a, b, c Vertex) Triangle { return graph.NewTriangle(a, b, c) }

// FromEdges builds a graph from a list of edges.
func FromEdges(edges []Edge) *Graph { return graph.FromEdges(edges) }

// ReadEdgeList parses a whitespace-separated edge list.
func ReadEdgeList(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// WriteEdgeList writes g as a sorted edge list.
func WriteEdgeList(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// LoadEdgeListFile reads an edge list from a file.
func LoadEdgeListFile(path string) (*Graph, error) { return graph.LoadEdgeListFile(path) }

// SaveEdgeListFile writes g to a file as a sorted edge list.
func SaveEdgeListFile(path string, g *Graph) error { return graph.SaveEdgeListFile(path, g) }

// WriteBinary writes g in the compact binary snapshot format (delta-coded
// sorted edge list; typically an order of magnitude smaller than text).
func WriteBinary(w io.Writer, g *Graph) error { return graph.WriteBinary(w, g) }

// ReadBinary parses a binary snapshot written by WriteBinary.
func ReadBinary(r io.Reader) (*Graph, error) { return graph.ReadBinary(r) }

// SaveBinaryFile writes g to a file in binary snapshot format.
func SaveBinaryFile(path string, g *Graph) error { return graph.SaveBinaryFile(path, g) }

// LoadBinaryFile reads a binary snapshot file.
func LoadBinaryFile(path string) (*Graph, error) { return graph.LoadBinaryFile(path) }

// DiffGraphs computes the edit from old to new.
func DiffGraphs(old, new *Graph) Diff { return graph.DiffGraphs(old, new) }

// TriangleCount returns the number of triangles in g.
func TriangleCount(g *Graph) int64 { return graph.TriangleCount(g) }

// Decompose computes the maximum Triangle K-Core number κ(e) of every
// edge of g (Algorithm 1). It runs in time linear in the number of
// triangles of the graph.
func Decompose(g *Graph) *Decomposition { return core.Decompose(g) }

// NewEngine builds an incremental maintenance engine over a copy of g,
// with κ initialized by Algorithm 1. Subsequent InsertEdge and DeleteEdge
// calls keep κ exact (Algorithm 2); ApplyBatch applies a whole []EdgeOp
// slice at once, deduplicating repeated edges and reusing traversal
// scratch across operations.
func NewEngine(g *Graph) *Engine { return dynamic.NewEngine(g) }

// DensityPlot renders the clique-distribution plot of g from a Triangle
// K-Core decomposition, plotting each vertex at κ+2 of one of its edges
// (Algorithm 3, steps 1–3).
func DensityPlot(g *Graph, d *Decomposition) Series {
	return plot.Density(g, plot.FromDecomposition(d))
}

// DensityPlotValues renders the clique-distribution plot of g under an
// explicit per-edge value assignment.
func DensityPlotValues(g *Graph, vals EdgeValues) Series { return plot.Density(g, vals) }

// ComparePlots quantifies per-vertex height agreement of two plots.
func ComparePlots(a, b Series) PlotComparison { return plot.Compare(a, b) }

// RenderASCII draws a density plot as text.
func RenderASCII(s Series, width, height int) string { return plot.RenderASCII(s, width, height) }

// RenderSVG draws a density plot as an SVG document.
func RenderSVG(s Series, opts plot.SVGOptions) string { return plot.RenderSVG(s, opts) }

// SVGOptions configure RenderSVG.
type SVGOptions = plot.SVGOptions

// BuildDualView runs Algorithm 3 over two snapshots, producing the
// before/after plots and correspondence markers of the paper's dynamic
// case studies.
func BuildDualView(old, new *Graph, opts DualViewOptions) DualView {
	return plot.BuildDualView(old, new, opts)
}

// DetectTemplate runs Algorithm 4 on g with the given pattern spec.
func DetectTemplate(g *Graph, spec TemplateSpec) *TemplateResult {
	return template.Detect(g, spec)
}

// EvolvingNovelty classifies edges/vertices as new when absent from old.
func EvolvingNovelty(old, new *Graph) Novelty { return template.Evolving(old, new) }

// InterComplexNovelty classifies an edge as new when its endpoints carry
// different labels (the static attribute variant of Section VII-F).
func InterComplexNovelty(label map[Vertex]string) Novelty { return template.InterComplex(label) }

// NewFormPattern matches cliques formed entirely by new edges among
// original vertices (Figure 4a).
func NewFormPattern(n Novelty) TemplateSpec { return template.NewForm(n) }

// BridgePattern matches cliques bridging two previously disconnected
// cliques (Figure 4b).
func BridgePattern(n Novelty) TemplateSpec { return template.Bridge(n) }

// NewJoinPattern matches cliques formed by an existing clique plus new
// vertices (Figure 4c).
func NewJoinPattern(n Novelty) TemplateSpec { return template.NewJoin(n) }

// Community-evolution event detection (the event-detection application
// of the paper's introduction, taxonomy after its reference [15]).
type (
	// Community is a dense community of one snapshot.
	Community = events.Community
	// CommunityEvent is one detected transition between snapshots.
	CommunityEvent = events.Event
	// EventType classifies a CommunityEvent.
	EventType = events.Type
	// EventOptions tune the community matcher.
	EventOptions = events.Options
)

// Event type constants re-exported for callers of DetectEvents.
const (
	EventContinue = events.Continue
	EventGrow     = events.Grow
	EventShrink   = events.Shrink
	EventMerge    = events.Merge
	EventSplit    = events.Split
	EventForm     = events.Form
	EventDissolve = events.Dissolve
)

// DetectEvents extracts the level-k Triangle K-Core communities of two
// snapshots and classifies how each evolved: continue, grow, shrink,
// merge, split, form or dissolve.
func DetectEvents(old, new *Graph, k int32, opts EventOptions) ([]Community, []Community, []CommunityEvent) {
	return events.FromSnapshots(old, new, k, opts)
}

// Timeline tracks communities across a whole snapshot stream with stable
// identifiers; feed snapshots with Observe.
type Timeline = events.Timeline

// NewTimeline starts a community timeline at level k.
func NewTimeline(k int32) *Timeline { return events.NewTimeline(k) }

// Versioned snapshot publication (the serving layer's concurrency
// model): a Publisher funnels mutations through one writer and publishes
// immutable Snapshots through an atomic pointer, so any number of
// readers run lock-free on a consistent frozen view while updates
// proceed.
type (
	// Publisher owns a dynamic engine and publishes versioned snapshots.
	Publisher = view.Publisher
	// Snapshot is one immutable published version: a frozen CSR view,
	// its κ values, and memoized derived artifacts (density series,
	// plots, communities) computed at most once per version.
	Snapshot = view.Snapshot
)

// NewPublisher builds a snapshot publisher over a copy of g and
// publishes the initial version.
func NewPublisher(g *Graph) *Publisher { return view.NewPublisherFromGraph(g) }

// NewPublisherFromEngine wraps an existing engine. The caller must stop
// mutating the engine directly; all further updates go through the
// publisher.
func NewPublisherFromEngine(en *Engine) *Publisher { return view.NewPublisher(en) }

// Multi-tenant graph hosting: a GraphRegistry maps names to GraphSpaces,
// each one an independent Publisher with per-graph quotas, a bookmark
// slot and a change feed that turns every publication into κ
// promotion/demotion and template-pattern events.
type (
	// GraphRegistry is the concurrency-safe name → GraphSpace map with
	// lifecycle (Create/Get/List/Delete), a global graph-count cap and
	// per-graph quotas.
	GraphRegistry = registry.Registry
	// GraphSpace is one hosted graph: publisher, quotas, bookmark, feed.
	GraphSpace = registry.Space
	// GraphQuotas bound one graph space (zero fields = unlimited).
	GraphQuotas = registry.Quotas
	// GraphRegistryConfig parameterizes NewGraphRegistry.
	GraphRegistryConfig = registry.Config
	// GraphQuotaError reports a write batch rejected by quota.
	GraphQuotaError = registry.QuotaError
	// ChangeFeed is a space's event hub: bounded replay ring plus live
	// subscribers with monotone event ids.
	ChangeFeed = registry.Feed
	// ChangeEvent is one rendered feed entry (id, kind, JSON payload).
	ChangeEvent = registry.Event
)

// DefaultGraphName is the space the server's legacy unprefixed HTTP
// routes alias.
const DefaultGraphName = registry.DefaultGraph

// NewGraphRegistry builds an empty graph registry.
func NewGraphRegistry(cfg GraphRegistryConfig) *GraphRegistry { return registry.New(cfg) }

// MetricsRegistry is the zero-dependency observability registry shared
// across layers: atomic counters, gauges and histograms with Prometheus
// text-format exposition (Gather / WritePrometheus). Wire one registry
// into Engine.Instrument and Publisher.Instrument — registration is
// idempotent, so every layer can register against the same instance —
// and serve its Gather output on a /metrics endpoint.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NopMetricsRegistry returns the disabled registry: every metric handle
// it hands out is a no-op costing one branch per event, so instrumented
// code runs untouched when observability is off.
func NopMetricsRegistry() *MetricsRegistry { return obs.Nop() }

// TrackedEngine is an Engine that also maintains the paper's explicit
// per-edge core membership (AddToCore/DelFromCore bookkeeping).
type TrackedEngine = dynamic.TrackedEngine

// NewTrackedEngine builds an incremental engine with explicit core
// membership maintained across updates.
func NewTrackedEngine(g *Graph) *TrackedEngine { return dynamic.NewTrackedEngine(g) }

// VertexKCore computes classic vertex K-Core numbers (Batagelj–Zaveršnik),
// the paper's Definitions 1–2 baseline.
func VertexKCore(g *Graph) *KCoreDecomposition { return kcore.Decompose(g) }

// MaximalCliques enumerates all maximal cliques of g (Bron–Kerbosch with
// pivoting over a degeneracy order).
func MaximalCliques(g *Graph) [][]Vertex { return clique.Maximal(g) }

// MaxClique returns one maximum clique of g.
func MaxClique(g *Graph) []Vertex { return clique.Max(g) }

// CSVCoCliqueSizes computes the exact co-clique size of every edge — the
// expensive per-edge maximum-clique step of the CSV baseline the Triangle
// K-Core replaces.
func CSVCoCliqueSizes(g *Graph) map[Edge]int { return csvbaseline.CoCliqueSizes(g) }

// TriDN computes the DN-Graph baseline's valid λ̄(e) by iterative
// refinement; by the paper's Claim 3 the converged values equal κ(e).
func TriDN(g *Graph) *DNGraphResult { return dngraph.TriDN(g, dngraph.Options{}) }

// BiTriDN is TriDN with a binary-search inner step.
func BiTriDN(g *Graph) *DNGraphResult { return dngraph.BiTriDN(g, dngraph.Options{}) }

// DissolvedPattern matches cliques of the old snapshot whose edges all
// vanished — run DetectTemplate over the OLD graph with the snapshots
// swapped in EvolvingNovelty: DetectTemplate(old, DissolvedPattern(EvolvingNovelty(new, old))).
func DissolvedPattern(reversed Novelty) TemplateSpec { return template.Dissolved(reversed) }

// Out-of-core decomposition over the mmap-friendly on-disk CSR (the
// TKCG v2 mapped layout): convert an edge list to a .tkcg file with
// ConvertEdgeListToCSR, open it as a zero-copy frozen view with
// OpenMapped, and decompose it under a memory budget with
// DecomposeExternal.
type (
	// StaticGraph is an immutable flat CSR view of a graph — what
	// FreezeGraph returns and what a mapped .tkcg file serves.
	StaticGraph = graph.Static
	// MappedGraph is a read-only StaticGraph backed by an mmap'd TKCG
	// v2 file: the flat arrays alias the page cache instead of the heap.
	// Close unmaps them.
	MappedGraph = graph.Mapped
	// CSRBuildStats reports what ConvertEdgeListToCSR wrote.
	CSRBuildStats = graph.MappedBuildStats
	// ExternalOptions configure DecomposeExternal (memory budget, temp
	// directory, metrics registry).
	ExternalOptions = extcore.Options
	// ExternalResult holds κ per dense edge id plus run statistics.
	ExternalResult = extcore.Result
	// ExternalStats reports how an out-of-core decomposition ran:
	// partitions, sweeps, spill volume, peak resident bytes.
	ExternalStats = extcore.Stats
)

// ErrCorruptGraphFile reports a TKCG file whose bytes fail an integrity
// check (CRC mismatch, truncation, inconsistent section table). Test
// with errors.Is on any load or open error.
var ErrCorruptGraphFile = graph.ErrCorrupt

// FreezeGraph builds the immutable flat CSR view of g that the bulk
// algorithms and the mapped serializer consume.
func FreezeGraph(g *Graph) *StaticGraph { return graph.FreezeStatic(g) }

// ConvertEdgeListToCSR streams the edge-list file at inPath into a TKCG
// v2 mapped CSR at outPath in two passes, without materializing the
// edge set in memory — inputs larger than RAM convert in O(|V|)
// resident space. The output is byte-identical to serializing
// FreezeGraph of the parsed graph.
func ConvertEdgeListToCSR(inPath, outPath string) (CSRBuildStats, error) {
	return graph.BuildMappedFile(inPath, outPath)
}

// SaveCSRFile writes an in-memory frozen view to path in the TKCG v2
// mapped layout, numbered as FreezeGraph numbers the same graph, so
// OpenMapped reads back any view, one an engine froze included.
func SaveCSRFile(path string, s *StaticGraph) error { return graph.WriteMapped(path, s) }

// OpenMapped maps a TKCG v2 CSR file as a read-only frozen view without
// parsing: the adjacency arrays are served straight off the page cache.
// The file is CRC-verified and structurally validated on open.
func OpenMapped(path string) (*MappedGraph, error) { return graph.OpenMapped(path) }

// DecomposeStatic runs Algorithm 1 on a frozen (or mapped) view.
func DecomposeStatic(s *StaticGraph) *Decomposition {
	return core.DecomposeStatic(s, core.Options{})
}

// DecomposeExternal computes κ(e) for every edge of s — typically a
// mapped view — holding at most opts.MemBudget bytes of peel state
// resident: the decomposition proceeds bottom-up over vertex-range
// partitions, spilling cross-partition support updates to temp files.
// The κ values are identical to Decompose's.
func DecomposeExternal(s *StaticGraph, opts ExternalOptions) (*ExternalResult, error) {
	return extcore.Decompose(s, opts)
}

// Dataset is one of the paper's Table I datasets, realized by a
// deterministic generator at a configurable scale.
type Dataset = dataset.Dataset

// Datasets lists the paper's Table I stand-ins.
func Datasets() []*Dataset { return dataset.All() }

// DatasetByName looks a Table I stand-in up by its paper name.
func DatasetByName(name string) (*Dataset, bool) { return dataset.ByName(name) }

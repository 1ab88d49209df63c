package trikcore_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"trikcore"
)

func cliqueGraph(n trikcore.Vertex) *trikcore.Graph {
	g := trikcore.NewGraph()
	for i := trikcore.Vertex(0); i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	return g
}

func TestFacadeBinaryIO(t *testing.T) {
	g := cliqueGraph(6)
	var buf bytes.Buffer
	if err := trikcore.WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := trikcore.ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Edges(), g2.Edges()) {
		t.Fatal("facade binary round trip changed the graph")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "g.tkcg")
	txt := filepath.Join(dir, "g.txt")
	if err := trikcore.SaveBinaryFile(bin, g); err != nil {
		t.Fatal(err)
	}
	if err := trikcore.SaveEdgeListFile(txt, g); err != nil {
		t.Fatal(err)
	}
	fromBin, err := trikcore.LoadBinaryFile(bin)
	if err != nil {
		t.Fatal(err)
	}
	fromTxt, err := trikcore.LoadEdgeListFile(txt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromBin.Edges(), fromTxt.Edges()) {
		t.Fatal("binary and text files disagree")
	}
}

func TestFacadeEventsAndTimeline(t *testing.T) {
	old := cliqueGraph(5)
	new := cliqueGraph(8)
	oldC, newC, evs := trikcore.DetectEvents(old, new, 2, trikcore.EventOptions{})
	if len(oldC) != 1 || len(newC) != 1 {
		t.Fatalf("communities: %d old, %d new", len(oldC), len(newC))
	}
	if len(evs) != 1 || evs[0].Type != trikcore.EventGrow {
		t.Fatalf("events = %v, want one grow", evs)
	}

	tl := trikcore.NewTimeline(2)
	tl.Observe(old, trikcore.EventOptions{})
	tl.Observe(new, trikcore.EventOptions{})
	if got := tl.ActiveTracks(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("active tracks = %v", got)
	}
	if !strings.Contains(tl.Summary(), "track 0: s0:5v s1:8v") {
		t.Fatalf("timeline summary:\n%s", tl.Summary())
	}
}

func TestFacadeTrackedEngine(t *testing.T) {
	te := trikcore.NewTrackedEngine(cliqueGraph(5))
	te.InsertEdge(0, 10)
	te.InsertEdge(1, 10)
	tris, ok := te.CoreTriangles(trikcore.NewEdge(0, 10))
	if !ok || len(tris) != 1 {
		t.Fatalf("CoreTriangles = %v (ok=%v)", tris, ok)
	}
	if err := te.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeHierarchyAndCommunities(t *testing.T) {
	g := cliqueGraph(5)
	g.AddEdge(4, 20)
	g.AddEdge(0, 20) // pendant triangle level 1
	d := trikcore.Decompose(g)
	roots := d.Hierarchy()
	if len(roots) != 1 || len(roots[0].Leaves()) != 1 {
		t.Fatalf("hierarchy roots = %v", roots)
	}
	leaf := roots[0].Leaves()[0]
	if leaf.K != 3 || len(leaf.Vertices()) != 5 {
		t.Fatalf("leaf = %+v", leaf)
	}
	if len(d.Communities(3)) != 1 {
		t.Fatal("communities wrong")
	}
}

func TestFacadeCoreTrianglesStatic(t *testing.T) {
	g := cliqueGraph(4)
	d := trikcore.Decompose(g)
	tris, ok := d.CoreTriangles(trikcore.NewEdge(0, 1))
	if !ok || len(tris) != 2 {
		t.Fatalf("static Rule 1 witness = %v", tris)
	}
}

func TestFacadeEngineQueries(t *testing.T) {
	en := trikcore.NewEngine(cliqueGraph(5))
	if h := en.KappaHistogram(); h[3] != 10 {
		t.Fatalf("engine histogram = %v", h)
	}
	sub, ok := en.MaxCoreOf(trikcore.NewEdge(0, 1))
	if !ok || sub.NumEdges() != 10 {
		t.Fatal("engine MaxCoreOf wrong")
	}
	if len(en.Communities(3)) != 1 {
		t.Fatal("engine Communities wrong")
	}
	w, ok := en.RuleOneWitness(trikcore.NewEdge(0, 1))
	if !ok || len(w) != 3 {
		t.Fatalf("RuleOneWitness = %v", w)
	}
}

func TestFacadePublisher(t *testing.T) {
	p := trikcore.NewPublisher(cliqueGraph(5))
	sn := p.Acquire()
	if sn.NumEdges() != 10 || sn.MaxCliqueProxy() != 5 {
		t.Fatalf("initial snapshot: %d edges, proxy %d", sn.NumEdges(), sn.MaxCliqueProxy())
	}
	p.Apply([]trikcore.EdgeOp{{U: 0, V: 9}, {U: 1, V: 9}})
	sn2 := p.Acquire()
	if sn2.Version <= sn.Version || sn2.NumEdges() != 12 {
		t.Fatalf("after apply: v%d→v%d, %d edges", sn.Version, sn2.Version, sn2.NumEdges())
	}
	if k, ok := sn2.KappaOf(trikcore.NewEdge(0, 9)); !ok || k != 1 {
		t.Fatalf("κ(0,9) = %d,%v", k, ok)
	}
	if _, ok := sn.KappaOf(trikcore.NewEdge(0, 9)); ok {
		t.Fatal("old snapshot sees the new edge")
	}
	if len(sn2.PlotSVG()) == 0 || len(sn2.Communities(3)) != 1 {
		t.Fatal("derived artifacts missing")
	}

	en := trikcore.NewEngine(cliqueGraph(4))
	p2 := trikcore.NewPublisherFromEngine(en)
	if got := p2.Acquire().NumEdges(); got != 6 {
		t.Fatalf("engine-wrapped publisher sees %d edges", got)
	}
}

// TestFacadeSaveCSRFileEngineView writes a view an engine froze after a
// deletion, whose top edge id moved into the freed slot, and requires
// OpenMapped to read it back with the same edges and the bytes
// SaveCSRFile gives for FreezeGraph of the same graph.
func TestFacadeSaveCSRFileEngineView(t *testing.T) {
	en := trikcore.NewEngine(cliqueGraph(8))
	en.DeleteEdge(0, 1)
	s, _ := en.FreezeView()
	dir := t.TempDir()
	path, ref := filepath.Join(dir, "view.tkcg"), filepath.Join(dir, "ref.tkcg")
	if err := trikcore.SaveCSRFile(path, s); err != nil {
		t.Fatal(err)
	}
	m, err := trikcore.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if got := m.Static().NumEdges(); got != 27 {
		t.Fatalf("read back %d edges, want 27", got)
	}
	for i := int32(0); i < 27; i++ {
		if e := m.Static().EdgeAt(i); !en.HasEdge(e.U, e.V) {
			t.Fatalf("edge %d is %v, which the engine does not have", i, e)
		}
	}
	if err := trikcore.SaveCSRFile(ref, trikcore.FreezeGraph(en.Graph())); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("SaveCSRFile bytes of the engine view differ from those of FreezeGraph")
	}
}

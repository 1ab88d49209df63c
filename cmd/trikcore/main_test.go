package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"trikcore"
	"trikcore/internal/server"
)

// writeFile writes content into dir/name and returns the path.
func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// capture runs the CLI and returns its stdout.
func capture(t *testing.T, args ...string) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		done <- string(data)
	}()
	runErr := run(args)
	w.Close()
	os.Stdout = old
	out := <-done
	if runErr != nil {
		t.Fatalf("run(%v) failed: %v", args, runErr)
	}
	return out
}

// k5edges is a 5-clique edge list plus a pendant path.
const k5edges = `1 2
1 3
1 4
1 5
2 3
2 4
2 5
3 4
3 5
4 5
10 11
11 12
`

func TestCmdStats(t *testing.T) {
	dir := t.TempDir()
	in := writeFile(t, dir, "g.txt", k5edges)
	out := capture(t, "stats", "-in", in)
	for _, want := range []string{"vertices:  8", "edges:     12", "triangles: 10", "max κ:     3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("stats output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdDecompose(t *testing.T) {
	dir := t.TempDir()
	in := writeFile(t, dir, "g.txt", k5edges)
	out := capture(t, "decompose", "-in", in, "-top", "3", "-k", "3")
	for _, want := range []string{"κ distribution:", "κ=3", "top 3 edges:", "communities at k=3: 1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("decompose output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdPlot(t *testing.T) {
	dir := t.TempDir()
	in := writeFile(t, dir, "g.txt", k5edges)
	ascii := capture(t, "plot", "-in", in, "-format", "ascii", "-width", "40", "-height", "8")
	if !strings.Contains(ascii, "#") {
		t.Fatalf("ascii plot empty:\n%s", ascii)
	}
	svgPath := filepath.Join(dir, "plot.svg")
	capture(t, "plot", "-in", in, "-format", "svg", "-out", svgPath)
	data, err := os.ReadFile(svgPath)
	if err != nil || !strings.Contains(string(data), "<svg") {
		t.Fatalf("svg plot not written: %v", err)
	}
}

func TestCmdUpdate(t *testing.T) {
	dir := t.TempDir()
	in := writeFile(t, dir, "g.txt", k5edges)
	ops := writeFile(t, dir, "ops.txt", "# grow the clique\n+ 6 1\n+ 6 2\n+ 6 3\n- 4 5\n")
	out := capture(t, "update", "-in", in, "-ops", ops)
	for _, want := range []string{"applied 3 insertions, 1 deletions", "edges now: 14"} {
		if !strings.Contains(out, want) {
			t.Fatalf("update output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdTemplate(t *testing.T) {
	dir := t.TempDir()
	old := writeFile(t, dir, "old.txt", "1 10\n2 11\n3 12\n4 13\n")
	// All pattern vertices existed in old; the 4-clique is entirely new.
	new := writeFile(t, dir, "new.txt", "1 10\n2 11\n3 12\n4 13\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n")
	out := capture(t, "template", "-old", old, "-new", new, "-pattern", "new-form")
	if !strings.Contains(out, "characteristic triangles: 4") {
		t.Fatalf("template output wrong:\n%s", out)
	}
	if !strings.Contains(out, "pattern clique 1: 4 vertices at co_clique_size 4") {
		t.Fatalf("template missed the planted clique:\n%s", out)
	}
}

func TestCmdErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("no-args run succeeded")
	}
	if err := run([]string{"bogus"}); err == nil {
		t.Fatal("unknown subcommand succeeded")
	}
	if err := run([]string{"stats", "-in", "/nonexistent/x.txt"}); err == nil {
		t.Fatal("missing input file succeeded")
	}
	dir := t.TempDir()
	in := writeFile(t, dir, "g.txt", "1 2\n")
	if err := run([]string{"plot", "-in", in, "-format", "bogus"}); err == nil {
		t.Fatal("bad plot format succeeded")
	}
	bad := writeFile(t, dir, "ops.txt", "? 1 2\n")
	if err := run([]string{"update", "-in", in, "-ops", bad}); err == nil {
		t.Fatal("bad ops file succeeded")
	}
	if err := run([]string{"template", "-old", in, "-new", in, "-pattern", "bogus"}); err == nil {
		t.Fatal("bad pattern succeeded")
	}
}

func TestCmdHierarchy(t *testing.T) {
	dir := t.TempDir()
	in := writeFile(t, dir, "g.txt", k5edges)
	out := capture(t, "hierarchy", "-in", in)
	for _, want := range []string{"k=1: 10 edges", "k=3: 10 edges, 5 vertices"} {
		if !strings.Contains(out, want) {
			t.Fatalf("hierarchy output missing %q:\n%s", want, out)
		}
	}
	empty := writeFile(t, dir, "empty.txt", "1 2\n2 3\n")
	out = capture(t, "hierarchy", "-in", empty)
	if !strings.Contains(out, "no triangles") {
		t.Fatalf("triangle-free hierarchy output:\n%s", out)
	}
}

func TestBuildServer(t *testing.T) {
	dir := t.TempDir()
	in := writeFile(t, dir, "g.txt", k5edges)
	srv, err := buildServer(in, server.Options{Workers: 4}, true)
	if err != nil || srv == nil {
		t.Fatalf("buildServer: %v", err)
	}
	if _, err := buildServer(filepath.Join(dir, "missing.txt"), server.Options{}, true); err == nil {
		t.Fatal("buildServer with missing file succeeded")
	}
	if srv, err := buildServer("", server.Options{Pprof: true}, true); err != nil || srv == nil {
		t.Fatal("buildServer with empty graph failed")
	}
	// -graphs preloading: good spec, bad pair syntax, missing file.
	srv, err = buildServer("", server.Options{}, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := preloadGraphs(srv, "extra="+in); err != nil {
		t.Fatalf("preloadGraphs: %v", err)
	}
	if _, ok := srv.Registry().Get("extra"); !ok {
		t.Fatal("preloaded graph missing")
	}
	if err := preloadGraphs(srv, "nopair"); err == nil {
		t.Fatal("bad -graphs pair accepted")
	}
	if err := preloadGraphs(srv, "x="+filepath.Join(dir, "missing.txt")); err == nil {
		t.Fatal("missing -graphs file accepted")
	}
}

func TestCmdConvert(t *testing.T) {
	dir := t.TempDir()
	in := writeFile(t, dir, "g.txt", k5edges)
	bin := filepath.Join(dir, "g.tkcg")
	out := capture(t, "convert", "-in", in, "-out", bin)
	if !strings.Contains(out, "converted 8 vertices, 12 edges") {
		t.Fatalf("convert output:\n%s", out)
	}
	back := filepath.Join(dir, "back.txt")
	capture(t, "convert", "-in", bin, "-out", back)
	orig, _ := os.ReadFile(in)
	round, _ := os.ReadFile(back)
	if string(orig) != string(round) {
		t.Fatalf("round trip mismatch:\n%s\nvs\n%s", orig, round)
	}
	if err := run([]string{"convert", "-in", in}); err == nil {
		t.Fatal("convert without -out succeeded")
	}
	if err := run([]string{"convert", "-in", in, "-out", back, "-to", "bogus"}); err == nil {
		t.Fatal("convert with bad format succeeded")
	}
}

func TestCmdConvertCSRStreaming(t *testing.T) {
	dir := t.TempDir()
	// Duplicates and reversed orientations exercise the streaming
	// builder's dedup path.
	in := writeFile(t, dir, "g.txt", k5edges+"2 1\n1 2\n")
	csr := filepath.Join(dir, "g.tkcg")
	out := capture(t, "convert", "-in", in, "-out", csr)
	if !strings.Contains(out, "converted 8 vertices, 12 edges") || !strings.Contains(out, "(csr)") {
		t.Fatalf("convert output:\n%s", out)
	}
	// The default .tkcg layout is now the mapped CSR: OpenMapped must
	// accept it directly.
	m, err := trikcore.OpenMapped(csr)
	if err != nil {
		t.Fatalf("convert did not produce a mapped CSR: %v", err)
	}
	if m.Static().NumEdges() != 12 {
		t.Errorf("mapped view has %d edges, want 12", m.Static().NumEdges())
	}
	m.Close()
	// Round trip back to text through the materializing loader: the
	// duplicate mentions collapse to the canonical edge list.
	back := filepath.Join(dir, "back.txt")
	capture(t, "convert", "-in", csr, "-out", back)
	round, _ := os.ReadFile(back)
	if string(round) != k5edges {
		t.Fatalf("round trip mismatch:\n%s", round)
	}
	// Explicit snapshot layout still available.
	snap := filepath.Join(dir, "snap.tkcg")
	out = capture(t, "convert", "-in", in, "-out", snap, "-to", "binary")
	if !strings.Contains(out, "(binary)") {
		t.Fatalf("snapshot convert output:\n%s", out)
	}
	if _, err := trikcore.OpenMapped(snap); err == nil {
		t.Fatal("snapshot layout opened as mapped CSR")
	}
}

func TestCmdDecomposeExternal(t *testing.T) {
	dir := t.TempDir()
	in := writeFile(t, dir, "g.txt", k5edges)
	want := capture(t, "decompose", "-in", in, "-top", "3")

	// Over the mmap'd CSR with a tiny budget, stdout must be identical
	// to the in-memory run — this is the equivalence CI scripts diff.
	csr := filepath.Join(dir, "g.tkcg")
	capture(t, "convert", "-in", in, "-out", csr)
	got := capture(t, "decompose", "-in", csr, "-external", "-mem-budget", "1024", "-top", "3")
	if got != want {
		t.Fatalf("external decompose output differs from in-memory:\n--- in-memory\n%s--- external\n%s", want, got)
	}
	// And over a plain edge list with the unbounded default budget.
	got = capture(t, "decompose", "-in", in, "-external", "-top", "3")
	if got != want {
		t.Fatalf("resident external decompose output differs:\n%s", got)
	}
	// Communities come from κ and the view alone, so -k lists the same
	// ones whichever peel produced κ.
	want = capture(t, "decompose", "-in", in, "-top", "3", "-k", "2")
	got = capture(t, "decompose", "-in", csr, "-external", "-mem-budget", "1024", "-top", "3", "-k", "2")
	if got != want || !strings.Contains(got, "communities at k=2: 1") {
		t.Fatalf("external -k output differs from in-memory:\n--- in-memory\n%s--- external\n%s", want, got)
	}
}

func TestCmdGen(t *testing.T) {
	dir := t.TempDir()
	list := capture(t, "gen", "-list")
	if !strings.Contains(list, "Astro-Author") {
		t.Fatalf("gen -list output:\n%s", list)
	}
	out := filepath.Join(dir, "astro.txt")
	msg := capture(t, "gen", "-dataset", "Astro-Author", "-scale", "0.05", "-out", out)
	if !strings.Contains(msg, "generated Astro-Author at scale 0.05") {
		t.Fatalf("gen output:\n%s", msg)
	}
	g, err := trikcore.LoadEdgeListFile(out)
	if err != nil || g.NumEdges() == 0 {
		t.Fatalf("generated file unusable: %v", err)
	}
	if err := run([]string{"gen", "-dataset", "nope", "-out", out}); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	if err := run([]string{"gen", "-dataset", "Astro-Author", "-scale", "2", "-out", out}); err == nil {
		t.Fatal("out-of-range scale accepted")
	}
	if err := run([]string{"gen"}); err == nil {
		t.Fatal("gen without flags accepted")
	}
}

func TestCmdPlotCSV(t *testing.T) {
	dir := t.TempDir()
	in := writeFile(t, dir, "g.txt", k5edges)
	out := capture(t, "plot", "-in", in, "-format", "csv")
	if !strings.HasPrefix(out, "position,vertex,height\n") {
		t.Fatalf("csv plot output:\n%s", out)
	}
	if !strings.Contains(out, ",5\n") {
		t.Fatal("csv missing clique heights")
	}
}

func TestCmdEvents(t *testing.T) {
	dir := t.TempDir()
	old := writeFile(t, dir, "old.txt", k5edges)
	// New snapshot: the 5-clique grows by two members.
	grown := k5edges + "6 1\n6 2\n6 3\n6 4\n6 5\n7 1\n7 2\n7 3\n7 4\n7 5\n7 6\n"
	new := writeFile(t, dir, "new.txt", grown)
	out := capture(t, "events", "-old", old, "-new", new, "-k", "3")
	if !strings.Contains(out, "grow") || !strings.Contains(out, "old#0(5v)") || !strings.Contains(out, "new#0(7v)") {
		t.Fatalf("events output:\n%s", out)
	}
	if err := run([]string{"events", "-old", old, "-new", "/nope"}); err == nil {
		t.Fatal("missing new file accepted")
	}
}

func TestCmdDualView(t *testing.T) {
	dir := t.TempDir()
	old := writeFile(t, dir, "old.txt", k5edges)
	grown := k5edges + "6 1\n6 2\n6 3\n6 4\n6 5\n"
	new := writeFile(t, dir, "new.txt", grown)
	svgDir := filepath.Join(dir, "svg")
	out := capture(t, "dualview", "-old", old, "-new", new, "-top", "1", "-svg", svgDir)
	if !strings.Contains(out, "marker 1: peak[h=6 w=6") {
		t.Fatalf("dualview output:\n%s", out)
	}
	for _, name := range []string{"before.svg", "after.svg"} {
		data, err := os.ReadFile(filepath.Join(svgDir, name))
		if err != nil || !strings.Contains(string(data), "<svg") {
			t.Fatalf("%s not written: %v", name, err)
		}
	}
	if err := run([]string{"dualview", "-old", old, "-new", "/nope"}); err == nil {
		t.Fatal("missing file accepted")
	}
}

package graph

import (
	"bytes"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestReadEdgeListBasic(t *testing.T) {
	in := "# comment\n% another comment\n1 2\n2 3 extra-ignored\n\n3 1\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []Edge{{1, 2}, {1, 3}, {2, 3}}
	if got := g.Edges(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Edges() = %v, want %v", got, want)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"too few fields", "1\n"},
		{"bad first vertex", "x 2\n"},
		{"bad second vertex", "1 y\n"},
		{"self loop", "3 3\n"},
		{"negative first vertex", "-3 2\n"},
		{"negative second vertex", "1 -2\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadEdgeList(strings.NewReader(tc.in)); err == nil {
				t.Fatalf("ReadEdgeList(%q) succeeded, want error", tc.in)
			}
		})
	}
}

func TestReadEdgeListFuncStreams(t *testing.T) {
	in := "# c\n1 2\n2 3\n%x\n3 1\n"
	var got []Edge
	err := ReadEdgeListFunc(strings.NewReader(in), func(u, v Vertex) error {
		got = append(got, NewEdge(u, v))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []Edge{{1, 2}, {2, 3}, {1, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("streamed %v, want %v", got, want)
	}

	// A callback error stops the scan and surfaces unchanged.
	sentinel := errors.New("stop here")
	calls := 0
	err = ReadEdgeListFunc(strings.NewReader(in), func(u, v Vertex) error {
		calls++
		if calls == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) || calls != 2 {
		t.Fatalf("err = %v after %d calls, want sentinel after 2", err, calls)
	}
}

func TestScanEdgeListFileMultiPass(t *testing.T) {
	path := filepath.Join(t.TempDir(), "edges.txt")
	if err := SaveEdgeListFile(path, FromPairs(1, 2, 2, 3)); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		n := 0
		if err := ScanEdgeListFile(path, func(u, v Vertex) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
		if n != 2 {
			t.Fatalf("pass %d saw %d edges, want 2", pass, n)
		}
	}
	if err := ScanEdgeListFile(filepath.Join(t.TempDir(), "nope.txt"), nil); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := randomGraph(30, 0.2, 11)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Edges(), g2.Edges()) {
		t.Fatal("edge list round trip changed the edge set")
	}
}

func TestEdgeListFileRoundTrip(t *testing.T) {
	g := FromPairs(1, 2, 2, 3, 3, 4)
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := SaveEdgeListFile(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadEdgeListFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Edges(), g2.Edges()) {
		t.Fatal("file round trip changed the edge set")
	}
	if _, err := LoadEdgeListFile(filepath.Join(t.TempDir(), "missing.txt")); err == nil {
		t.Fatal("loading a missing file succeeded")
	}
}

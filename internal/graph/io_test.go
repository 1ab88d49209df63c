package graph

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
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

// streamKeys is parseEdgeKeys' oracle: the keys of the edges
// ReadEdgeListFunc streams from data, and the error it returns.
func streamKeys(data []byte) ([]int64, error) {
	var keys []int64
	err := ReadEdgeListFunc(bytes.NewReader(data), func(u, v Vertex) error {
		keys = appendPair(keys, u, v)
		return nil
	})
	return keys, err
}

// checkChunked runs parseEdgeKeys on data at 1 to 4 chunks and checks it
// against the streaming parser: the same keys in the same order, or the
// same error text.
func checkChunked(t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := streamKeys(data)
	for chunks := 1; chunks <= 4; chunks++ {
		got, err := parseEdgeKeys(data, chunks)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%d chunks: error %v, streaming parser says %v", chunks, err, wantErr)
		}
		if err == nil && !slices.Equal(got, want) {
			t.Fatalf("%d chunks: %d keys differ from the streaming parser's %d", chunks, len(got), len(want))
		}
	}
}

// TestParseEdgeKeysMatchesStream pins the chunked bulk parser to the
// streaming one where the chunks meet. Edge lines of equal width put the
// cuts at about equal fractions of the lines, so in the 1000-line inputs
// line 100 lies in the first chunk and line 900 in the last at 2 to 4
// chunks. Cuts fall just after a newline; in the multi-byte case every
// line starts and ends with a multi-byte separator, so one sits on
// either side of every cut.
func TestParseEdgeKeysMatchesStream(t *testing.T) {
	lines := func(n int, line func(i int) string) []byte {
		var b bytes.Buffer
		for i := 1; i <= n; i++ {
			b.WriteString(line(i))
		}
		return b.Bytes()
	}
	edge := func(i int) string { return fmt.Sprintf("%06d %06d\n", i, i+1) }
	badAt := func(bad ...int) func(i int) string {
		return func(i int) string {
			if slices.Contains(bad, i) {
				return fmt.Sprintf("%06d %06d\n", i, i)
			}
			return edge(i)
		}
	}
	cases := []struct {
		name    string
		data    []byte
		wantErr string
	}{
		{"edges", lines(1000, edge), ""},
		{"error in a later chunk", lines(1000, badAt(900)), "graph: line 900: self-loop on vertex 900"},
		{"earliest of two errors", lines(1000, badAt(100, 900)), "graph: line 100: self-loop on vertex 100"},
		{"crlf", lines(1000, func(i int) string { return strings.TrimSuffix(edge(i), "\n") + "\r\n" }), ""},
		{"crlf negative", []byte("1 2\r\n3 -4\r\n"), `graph: line 2: negative vertex id in "3 -4"`},
		{"no trailing newline", bytes.TrimSuffix(lines(1000, edge), []byte("\n")), ""},
		{"no trailing newline, bad last line", append(lines(999, edge), "7"...), "graph: line 1000: want at least 2 fields, got 1"},
		{"multi-byte separators at every cut", lines(1000, func(i int) string {
			return fmt.Sprintf("%s%d%s%d%s\n", []string{"\u3000", "\u00a0", "\u0085"}[i%3], i,
				[]string{"\u0085", "\u3000", " "}[i%3], i+1, []string{"\u00a0", "\u3000x", " \u0085"}[i%3])
		}), ""},
		{"comments and blanks", lines(1000, func(i int) string {
			return []string{"# c\n", "\n", "%\n", " \t\n", edge(i)}[i%5]
		}), ""},
		{"error after comments in a later chunk", lines(1000, func(i int) string {
			if i == 903 {
				return "1\n"
			}
			return []string{"# c\n", edge(i)}[i%2]
		}), "graph: line 903: want at least 2 fields, got 1"},
		{"empty", nil, ""},
		{"only newlines", []byte("\n\n\n\n"), ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := streamKeys(tc.data)
			if fmt.Sprint(err) != fmt.Sprint(errOrNil(tc.wantErr)) {
				t.Fatalf("streaming parser says %v, want %q", err, tc.wantErr)
			}
			checkChunked(t, tc.data)
		})
	}
}

// errOrNil is nil for "" and an error with text s otherwise.
func errOrNil(s string) error {
	if s == "" {
		return nil
	}
	return errors.New(s)
}

// TestParseEdgeKeysLineLimit checks lines just under and just over the
// scanner's token limit, with and without a newline, after a first
// line: both parsers accept maxLine-1 bytes and reject maxLine with the
// scanner's error.
func TestParseEdgeKeysLineLimit(t *testing.T) {
	for _, n := range []int{maxLine - 1, maxLine} {
		for _, end := range []string{"\n", "\r\n", ""} {
			long := "1 2" + strings.Repeat(" ", n-3-len(strings.TrimSuffix(end, "\n"))) + end
			data := []byte("3 4\n" + long + "5 6\n")
			if end == "" {
				data = []byte("3 4\n" + long)
			}
			_, err := streamKeys(data)
			if tooLong := n >= maxLine; errors.Is(err, bufio.ErrTooLong) != tooLong {
				t.Fatalf("line of %d bytes ending %q: streaming parser says %v", n, end, err)
			}
			checkChunked(t, data)
		}
	}
}

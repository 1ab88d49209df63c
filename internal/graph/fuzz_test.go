package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// FuzzReadEdgeList checks the text parser against referenceEdgeList,
// the strings.Fields parser it replaced: the same edges in the same
// order, and the same error text for every rejected input. The bulk
// parser behind ReadEdgeList runs at 1 to 4 chunks on every input (its
// own choice is one chunk below parallelParseMin bytes, far above the
// fuzzer's usual inputs) and must give the same edges' keys or the same
// error text. Every accepted graph must round-trip through the writer.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("1 2\n2 3\n")
	f.Add("# comment\n5 6 extra\n")
	f.Add("")
	f.Add("-1 -2\n")
	f.Add("99999999999999999 1\n")
	f.Add("1\u00852\n3\u00a04\n\u00855 6\u0085\n")
	f.Add("1 2\r\n2 3\r\n\r\n")
	f.Add("\t1\t2\t\n\v3\f4\n")
	f.Add("+7 007\n")
	f.Add("2147483647 1000000000\n")
	f.Add("2147483648 1\n1 -2147483649\n")
	f.Add("00000000000000000007 1\n")
	f.Add("-0 1\n")
	f.Add("  # comment\n\t% comment\n1 2 # trailing\n")
	f.Add("1\n")
	f.Add("+ 1\n1 2x\n")
	f.Add("99999999999x 1\n")
	f.Add("\xc2 1 2\n1\xa0 2\n")
	f.Add("1\u30002\n")
	f.Add("1 2\n3 4\n5 5\n6 7\n8 8\n9\n")
	f.Add("1\u00a02\u0085\n\u30003 4\r\n5 6")
	f.Fuzz(func(t *testing.T, input string) {
		var got, want []Edge
		collect := func(out *[]Edge) func(u, v Vertex) error {
			return func(u, v Vertex) error {
				*out = append(*out, Edge{U: u, V: v})
				return nil
			}
		}
		gotErr := ReadEdgeListFunc(strings.NewReader(input), collect(&got))
		wantErr := referenceEdgeList(strings.NewReader(input), collect(&want))
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("error %v, reference parser says %v", gotErr, wantErr)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("edges %v, reference parser gives %v", got, want)
		}

		var wantKeys []int64
		for _, e := range want {
			wantKeys = appendPair(wantKeys, e.U, e.V)
		}
		for chunks := 1; chunks <= 4; chunks++ {
			keys, err := parseEdgeKeys([]byte(input), chunks)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%d chunks: error %v, reference parser says %v", chunks, err, wantErr)
			}
			if err == nil && !slices.Equal(keys, wantKeys) {
				t.Fatalf("%d chunks: keys differ from the reference parser's edges", chunks)
			}
		}

		g, err := ReadEdgeList(bytes.NewReader([]byte(input)))
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("ReadEdgeList error %v, reference parser says %v", err, wantErr)
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatalf("accepted graph failed to serialize: %v", err)
		}
		g2, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("own output rejected: %v", err)
		}
		if !reflect.DeepEqual(g.Edges(), g2.Edges()) {
			t.Fatal("text round trip changed the edge set")
		}
	})
}

// referenceEdgeList is the edge-list parser ReadEdgeListFunc replaced,
// which split each line with strings.Fields and parsed ids with
// strconv.ParseInt: the oracle of FuzzReadEdgeList.
func referenceEdgeList(r io.Reader, fn func(u, v Vertex) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return fmt.Errorf("graph: line %d: want at least 2 fields, got %d", lineNo, len(fields))
		}
		u, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return fmt.Errorf("graph: line %d: bad vertex %q: %w", lineNo, fields[0], err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return fmt.Errorf("graph: line %d: bad vertex %q: %w", lineNo, fields[1], err)
		}
		if u < 0 || v < 0 {
			return fmt.Errorf("graph: line %d: negative vertex id in %q", lineNo, line)
		}
		if u == v {
			return fmt.Errorf("graph: line %d: self-loop on vertex %d", lineNo, u)
		}
		if err := fn(Vertex(u), Vertex(v)); err != nil { //trikcheck:checked ParseInt bitSize 32 bounds both
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("graph: reading edge list: %w", err)
	}
	return nil
}

// FuzzFreezeStatic feeds parsed edge lists through the parallel CSR build
// and checks the frozen view's structural invariants: row/edge counts
// match the source graph, every AdjEdgeID entry round-trips through
// EdgeIndex, and per-edge Support sums to three times TriangleCount.
func FuzzFreezeStatic(f *testing.F) {
	f.Add("1 2\n2 3\n3 1\n")
	f.Add("0 1\n")
	f.Add("")
	f.Add("5 1\n5 2\n5 3\n1 2\n2 3\n1 3\n")
	f.Add("10 20\n20 30\n30 10\n10 40\n40 20\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadEdgeList(bytes.NewReader([]byte(input)))
		if err != nil {
			return
		}
		s := FreezeStatic(g)
		if s.NumVertices() != g.NumVertices() || s.NumEdges() != g.NumEdges() {
			t.Fatalf("view %d/%d vs graph %d/%d vertices/edges",
				s.NumVertices(), s.NumEdges(), g.NumVertices(), g.NumEdges())
		}
		var supportSum int64
		for i := int32(0); i < int32(s.NumEdges()); i++ {
			u, v := s.Endpoints(i)
			if u >= v {
				t.Fatalf("edge %d not canonical: (%d,%d)", i, u, v)
			}
			if got := s.EdgeIndex(u, v); got != i {
				t.Fatalf("EdgeIndex(%d,%d) = %d, want %d", u, v, got, i)
			}
			e := s.EdgeAt(i)
			if want := g.SupportE(e); s.Support(i) != want {
				t.Fatalf("Support(%v) = %d, graph says %d", e, s.Support(i), want)
			}
			supportSum += int64(s.Support(i))
		}
		if supportSum != 3*s.TriangleCount() {
			t.Fatalf("support sum %d != 3×%d triangles", supportSum, s.TriangleCount())
		}
		for u := int32(0); u < int32(s.NumVertices()); u++ {
			row, ids := s.Row(u)
			for k, w := range row {
				id := ids[k]
				a, b := u, w
				if a > b {
					a, b = b, a
				}
				if eu, ev := s.Endpoints(id); eu != a || ev != b {
					t.Fatalf("edge-id row %d entry %d = edge %d (%d,%d), want (%d,%d)",
						u, k, id, eu, ev, a, b)
				}
			}
		}
	})
}

// FuzzReadBinary checks the binary parser never panics and that every
// accepted snapshot round-trips bit-exactly.
func FuzzReadBinary(f *testing.F) {
	good := func(g *Graph) []byte {
		var buf bytes.Buffer
		WriteBinary(&buf, g)
		return buf.Bytes()
	}
	f.Add(good(FromPairs(1, 2, 2, 3, 3, 1)))
	f.Add(good(New()))
	f.Add([]byte("TKCG\x01"))
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatalf("accepted snapshot failed to serialize: %v", err)
		}
		g2, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("own output rejected: %v", err)
		}
		if !reflect.DeepEqual(g.Edges(), g2.Edges()) ||
			!reflect.DeepEqual(g.Vertices(), g2.Vertices()) {
			t.Fatal("binary round trip changed the graph")
		}
	})
}

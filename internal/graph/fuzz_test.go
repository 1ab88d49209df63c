package graph

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadEdgeList checks the text parser never panics and that every
// accepted graph round-trips through the writer.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("1 2\n2 3\n")
	f.Add("# comment\n5 6 extra\n")
	f.Add("")
	f.Add("-1 -2\n")
	f.Add("99999999999999999 1\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadEdgeList(bytes.NewReader([]byte(input)))
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

package graph

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestBinaryRoundTrip(t *testing.T) {
	g := randomGraph(60, 0.15, 9)
	g.AddVertex(5000) // isolated vertex must survive
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Edges(), g2.Edges()) || !reflect.DeepEqual(g.Vertices(), g2.Vertices()) {
		t.Fatal("binary round trip changed the graph")
	}
}

func TestBinaryQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(25, 0.3, seed)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			return false
		}
		g2, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(g.Edges(), g2.Edges()) &&
			reflect.DeepEqual(g.Vertices(), g2.Vertices())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryEmptyGraph(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, New()); err != nil {
		t.Fatal(err)
	}
	g, err := ReadBinary(&buf)
	if err != nil || g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty round trip: %v, %d/%d", err, g.NumVertices(), g.NumEdges())
	}
}

// TestWriteBinaryRejectsNegativeIDs: the snapshot codec stores ids as
// unsigned gaps, so a graph holding a negative id must be refused with
// nothing written rather than produce a file ReadBinary rejects.
func TestWriteBinaryRejectsNegativeIDs(t *testing.T) {
	g := FromPairs(-3, 1, 1, 2)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err == nil {
		t.Fatal("WriteBinary accepted a negative vertex id")
	}
	if buf.Len() != 0 {
		t.Fatalf("WriteBinary wrote %d bytes before refusing", buf.Len())
	}
}

func TestBinarySmallerThanText(t *testing.T) {
	g := randomGraph(200, 0.1, 3)
	var bin, txt bytes.Buffer
	if err := WriteBinary(&bin, g); err != nil {
		t.Fatal(err)
	}
	if err := WriteEdgeList(&txt, g); err != nil {
		t.Fatal(err)
	}
	if bin.Len() >= txt.Len() {
		t.Fatalf("binary %d bytes not smaller than text %d bytes", bin.Len(), txt.Len())
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,                    // empty
		[]byte("TKCG"),         // truncated header
		[]byte("XXXX\x01rest"), // bad magic
		[]byte("TKCG\x02"),     // wrong version
		[]byte("TKCG\x01\x05"), // vertex count 5, no data
		{'T', 'K', 'C', 'G', 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, // absurd count
	}
	for i, data := range cases {
		if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
			t.Fatalf("case %d: garbage accepted", i)
		}
	}
}

func TestBinaryRejectsInconsistency(t *testing.T) {
	// Hand-build: 2 vertices (1, 2), 1 edge with V offset 0 (self-loop).
	data := []byte{'T', 'K', 'C', 'G', 1, 2, 1, 1, 1, 1, 0}
	if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
		t.Fatal("self-loop accepted")
	}
	// Edge referencing undeclared vertex: vertices {1,2}, edge 1→gap... U=1, V=1+5=6.
	data = []byte{'T', 'K', 'C', 'G', 1, 2, 1, 1, 1, 1, 5}
	if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
		t.Fatal("undeclared endpoint accepted")
	}
	// Duplicate edge.
	data = []byte{'T', 'K', 'C', 'G', 1, 2, 1, 1, 2, 1, 1, 0, 1}
	if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
		t.Fatal("duplicate edge accepted")
	}
	// Duplicate vertex (zero gap after the first).
	data = []byte{'T', 'K', 'C', 'G', 1, 2, 1, 0, 0}
	if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
		t.Fatal("duplicate vertex accepted")
	}
}

func TestBinaryReadsLegacyV1(t *testing.T) {
	// Hand-encoded v1 snapshot: vertices {1, 2, 3}, edges 1-2, 2-3.
	data := []byte{'T', 'K', 'C', 'G', 0x01,
		3, 1, 1, 1, // |V|=3, gaps 1,1,1
		2, 1, 1, 1, 1} // |E|=2, (uGap=1,vOff=1), (uGap=1,vOff=1)
	g, err := ReadBinary(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("v1 snapshot rejected: %v", err)
	}
	want := FromPairs(1, 2, 2, 3)
	if !reflect.DeepEqual(g.Edges(), want.Edges()) {
		t.Fatalf("v1 decode got %v, want %v", g.Edges(), want.Edges())
	}
}

func TestBinaryV2Corruption(t *testing.T) {
	g := randomGraph(40, 0.2, 11)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()

	t.Run("flipped payload byte", func(t *testing.T) {
		data := bytes.Clone(orig)
		data[len(data)/2] ^= 0x01
		if _, err := ReadBinary(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("flipped CRC byte", func(t *testing.T) {
		data := bytes.Clone(orig)
		data[len(data)-1] ^= 0x01
		if _, err := ReadBinary(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if _, err := ReadBinary(bytes.NewReader(orig[:len(orig)-3])); !errors.Is(err, ErrCorrupt) {
			t.Errorf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("intact", func(t *testing.T) {
		g2, err := ReadBinary(bytes.NewReader(orig))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g.Edges(), g2.Edges()) {
			t.Error("intact v2 snapshot decoded to a different graph")
		}
	})
}

func TestLoadBinaryFileMaterializesMapped(t *testing.T) {
	g := randomGraph(30, 0.2, 12)
	path := filepath.Join(t.TempDir(), "g.tkcg")
	if err := WriteMapped(path, FreezeStatic(g)); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadBinaryFile(path)
	if err != nil {
		t.Fatalf("LoadBinaryFile on mapped layout: %v", err)
	}
	if !reflect.DeepEqual(g.Edges(), g2.Edges()) || !reflect.DeepEqual(g.Vertices(), g2.Vertices()) {
		t.Fatal("materialized mapped graph differs from the original")
	}
	// ReadBinary itself must refuse the mapped layout with a clear error.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := ReadBinary(f); err == nil || !strings.Contains(err.Error(), "OpenMapped") {
		t.Errorf("ReadBinary on mapped layout: err = %v, want pointer to OpenMapped", err)
	}
}

func TestBinaryFileRoundTrip(t *testing.T) {
	g := FromPairs(1, 2, 2, 3, 3, 1)
	path := filepath.Join(t.TempDir(), "g.tkcg")
	if err := SaveBinaryFile(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadBinaryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Edges(), g2.Edges()) {
		t.Fatal("file round trip changed the graph")
	}
	if _, err := LoadBinaryFile(filepath.Join(t.TempDir(), "nope.tkcg")); err == nil {
		t.Fatal("missing file accepted")
	}
}

package graph

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
)

// Binary snapshot format: a compact delta-encoded edge list for
// persistence. The current writer emits TKCG version 2 with the
// snapshot layout (see format.go for the container):
//
//	magic "TKCG", version byte 0x02, layout byte 0x01
//	uvarint |V|, then |V| uvarint gaps of the sorted vertex ids
//	  (first gap is the first id itself; later gaps are id[i]-id[i-1])
//	uvarint |E|, then per canonical edge in sorted order:
//	  uvarint gap of U from the previous edge's U,
//	  uvarint V-U (always ≥ 1)
//	u32 little-endian CRC32 (IEEE) of every preceding byte
//
// Sorted delta coding keeps most gaps in one byte, so real graphs
// serialize to a small multiple of |E| bytes — an order of magnitude
// smaller than the text edge list. The reader still accepts version 1
// files (the same payload after a "TKCG\x01" header, with no CRC);
// version 2 files that fail the CRC or truncate mid-payload report
// ErrCorrupt.

// WriteBinary writes g in the binary snapshot format (TKCG v2). The
// format stores vertex ids as unsigned gaps, so a graph holding a
// negative id is refused before anything is written.
func WriteBinary(w io.Writer, g *Graph) error {
	verts := g.Vertices()
	if len(verts) > 0 && verts[0] < 0 {
		return fmt.Errorf("graph: writing binary: negative vertex id %d", verts[0])
	}
	bw := bufio.NewWriter(w)
	h := crc32.NewIEEE()
	mw := io.MultiWriter(bw, h)
	header := [6]byte{tkcgMagic[0], tkcgMagic[1], tkcgMagic[2], tkcgMagic[3], tkcgVersion2, layoutSnapshot}
	if _, err := mw.Write(header[:]); err != nil {
		return fmt.Errorf("graph: writing binary header: %w", err)
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(x uint64) error {
		n := binary.PutUvarint(buf[:], x)
		_, err := mw.Write(buf[:n])
		return err
	}
	if err := putUvarint(uint64(len(verts))); err != nil {
		return fmt.Errorf("graph: writing vertex count: %w", err)
	}
	prev := Vertex(0)
	for i, v := range verts {
		gap := uint64(v)
		if i > 0 {
			gap = uint64(v - prev)
		}
		if err := putUvarint(gap); err != nil {
			return fmt.Errorf("graph: writing vertex %d: %w", v, err)
		}
		prev = v
	}
	edges := g.Edges()
	if err := putUvarint(uint64(len(edges))); err != nil {
		return fmt.Errorf("graph: writing edge count: %w", err)
	}
	prevU := Vertex(0)
	for i, e := range edges {
		uGap := uint64(e.U)
		if i > 0 {
			uGap = uint64(e.U - prevU)
		}
		if err := putUvarint(uGap); err != nil {
			return fmt.Errorf("graph: writing edge %v: %w", e, err)
		}
		if err := putUvarint(uint64(e.V - e.U)); err != nil {
			return fmt.Errorf("graph: writing edge %v: %w", e, err)
		}
		prevU = e.U
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], h.Sum32())
	if _, err := bw.Write(sum[:]); err != nil {
		return fmt.Errorf("graph: writing CRC: %w", err)
	}
	return bw.Flush()
}

// crcByteReader forwards ReadByte while folding every consumed byte
// into the running CRC, so the reader hashes exactly the bytes the
// payload parser saw.
type crcByteReader struct {
	br *bufio.Reader
	h  hash.Hash32
}

func (r *crcByteReader) ReadByte() (byte, error) {
	b, err := r.br.ReadByte()
	if err == nil {
		r.h.Write([]byte{b})
	}
	return b, err
}

// ReadBinary parses a graph written by WriteBinary. Both the current
// version 2 snapshot (CRC-checked; corruption reports ErrCorrupt) and
// legacy version 1 files are accepted. Mapped-layout files are refused
// with a pointer to OpenMapped, which serves them without parsing.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	var header [5]byte
	if _, err := io.ReadFull(br, header[:]); err != nil {
		return nil, fmt.Errorf("graph: reading binary header: %w", err)
	}
	if [4]byte(header[0:4]) != tkcgMagic {
		return nil, fmt.Errorf("graph: bad magic %q (not a TKCG snapshot)", header[0:4])
	}
	switch header[4] {
	case tkcgVersion1:
		return readBinaryPayload(br)
	case tkcgVersion2:
		layout, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("graph: %w: header ends before the layout byte", ErrCorrupt)
		}
		switch layout {
		case layoutSnapshot:
			h := crc32.NewIEEE()
			h.Write(header[:])
			h.Write([]byte{layout})
			g, err := readBinaryPayload(&crcByteReader{br: br, h: h})
			if err != nil {
				return nil, fmt.Errorf("graph: %w: %w", ErrCorrupt, err)
			}
			var sum [4]byte
			if _, err := io.ReadFull(br, sum[:]); err != nil {
				return nil, fmt.Errorf("graph: %w: snapshot ends before its CRC", ErrCorrupt)
			}
			if want := binary.LittleEndian.Uint32(sum[:]); h.Sum32() != want {
				return nil, fmt.Errorf("graph: %w: CRC32 %#x, want %#x", ErrCorrupt, h.Sum32(), want)
			}
			return g, nil
		case layoutMapped:
			return nil, fmt.Errorf("graph: mapped-layout TKCG files are served by OpenMapped, not ReadBinary")
		default:
			return nil, fmt.Errorf("graph: %w: unknown layout byte %#x", ErrCorrupt, layout)
		}
	default:
		return nil, fmt.Errorf("graph: unsupported TKCG version %d", header[4])
	}
}

// readBinaryPayload parses the delta-coded vertex and edge lists shared
// by both snapshot versions.
func readBinaryPayload(br io.ByteReader) (*Graph, error) {
	readUvarint := func(what string) (uint64, error) {
		x, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, fmt.Errorf("graph: reading %s: %w", what, err)
		}
		return x, nil
	}
	const maxCount = 1 << 31 // refuse absurd counts rather than OOM
	nv, err := readUvarint("vertex count")
	if err != nil {
		return nil, err
	}
	if nv > maxCount {
		return nil, fmt.Errorf("graph: vertex count %d too large", nv)
	}
	// Clamp the preallocation hint: the count is attacker-controlled
	// until the payload has actually been read.
	hint := int(nv)
	if hint > 1<<20 {
		hint = 1 << 20
	}
	g := NewWithCapacity(hint)
	cur := uint64(0)
	for i := uint64(0); i < nv; i++ {
		gap, err := readUvarint("vertex gap")
		if err != nil {
			return nil, err
		}
		if i > 0 && gap == 0 {
			return nil, fmt.Errorf("graph: duplicate vertex id in snapshot")
		}
		cur += gap
		if cur > 1<<31-1 {
			return nil, fmt.Errorf("graph: vertex id %d overflows int32", cur)
		}
		g.AddVertex(Vertex(cur)) //trikcheck:checked cur overflow-checked above
	}
	ne, err := readUvarint("edge count")
	if err != nil {
		return nil, err
	}
	if ne > maxCount {
		return nil, fmt.Errorf("graph: edge count %d too large", ne)
	}
	curU := uint64(0)
	for i := uint64(0); i < ne; i++ {
		uGap, err := readUvarint("edge U gap")
		if err != nil {
			return nil, err
		}
		curU += uGap
		vOff, err := readUvarint("edge V offset")
		if err != nil {
			return nil, err
		}
		if vOff == 0 {
			return nil, fmt.Errorf("graph: edge %d encodes a self-loop", i)
		}
		v := curU + vOff
		if v > 1<<31-1 {
			return nil, fmt.Errorf("graph: vertex id %d overflows int32", v)
		}
		// v = curU + vOff with vOff ≥ 1, so the overflow check on v above
		// bounds curU as well.
		if !g.HasVertex(Vertex(curU)) || !g.HasVertex(Vertex(v)) { //trikcheck:checked v (and so curU < v) overflow-checked above
			return nil, fmt.Errorf("graph: edge %d-%d references undeclared vertex", curU, v)
		}
		if !g.AddEdge(Vertex(curU), Vertex(v)) { //trikcheck:checked v (and so curU < v) overflow-checked above
			return nil, fmt.Errorf("graph: duplicate edge %d-%d in snapshot", curU, v)
		}
	}
	return g, nil
}

// SaveBinaryFile writes g to the named file in binary snapshot format.
func SaveBinaryFile(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("graph: %w", err)
	}
	if err := WriteBinary(f, g); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}

// LoadBinaryFile reads a TKCG file from the named path into a mutable
// Graph. Snapshot-layout files (v1 and v2) parse directly; a
// mapped-layout file is opened with OpenMapped and materialized, so
// callers that want a Graph need not care which layout a .tkcg holds.
func LoadBinaryFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	var sniff [6]byte
	if n, err := io.ReadFull(f, sniff[:]); err != nil && n < 5 {
		return nil, errors.Join(fmt.Errorf("graph: reading binary header: %w", err), f.Close())
	}
	if [4]byte(sniff[0:4]) == tkcgMagic && sniff[4] == tkcgVersion2 && sniff[5] == layoutMapped {
		if err := f.Close(); err != nil {
			return nil, fmt.Errorf("graph: %w", err)
		}
		m, err := OpenMapped(path)
		if err != nil {
			return nil, err
		}
		g := m.Static().Materialize()
		if err := m.Close(); err != nil {
			return nil, err
		}
		return g, nil
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, errors.Join(fmt.Errorf("graph: %w", err), f.Close())
	}
	defer f.Close()
	return ReadBinary(f)
}

package graph

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// On-disk container format shared by the two TKCG layouts.
//
// Every TKCG file starts with the 4-byte magic "TKCG" followed by a
// version byte. Version 1 files (the original snapshot codec) carry the
// varint edge-list payload directly after the version byte, with no
// integrity check. Version 2 files add a layout byte after the version:
//
//	layoutSnapshot (0x01): the same varint edge-list payload, followed
//	  by a 4-byte little-endian CRC32 (IEEE) of everything before it.
//	layoutMapped (0x02): the mmap-friendly on-disk CSR described below,
//	  designed so OpenMapped can serve a read-only *Static directly off
//	  the page cache without parsing.
//
// Mapped layout (all integers little-endian):
//
//	offset 0   magic "TKCG"
//	offset 4   version byte (0x02)
//	offset 5   layout byte (0x02)
//	offset 6   2 reserved zero bytes
//	offset 8   u64 page size the sections are aligned to (4096)
//	offset 16  u64 vertex count N
//	offset 24  u64 edge count M
//	offset 32  u64 section count
//	offset 40  section table: sectionCount × {u64 id, u64 offset, u64 len}
//	...        page-aligned sections, in id order
//	tail       u32 CRC32 (IEEE) of file[0 : size-8], u32 trailer "TKC2"
//
// The nine sections are the flat arrays a flat-built graph.Static's
// chunks point into, in the exact in-memory representation (int32
// little-endian), so a mapped file IS the frozen view: RowPtr, AdjNbr,
// AdjEdgeID, EdgeU, EdgeV, OutPtr, OutNbr, OutEdgeID, OrigID. Page alignment keeps every section
// int32-aligned for direct slicing and lets the kernel fault each array
// independently.
var (
	tkcgMagic = [4]byte{'T', 'K', 'C', 'G'}

	// ErrCorrupt reports a TKCG file whose bytes fail an integrity
	// check: a CRC mismatch, a truncated payload, or a section table
	// that does not describe the file. Callers test with errors.Is.
	ErrCorrupt = errors.New("corrupt TKCG file")
)

const (
	tkcgVersion1 = 0x01 // varint snapshot, no CRC (legacy)
	tkcgVersion2 = 0x02 // layout byte + CRC32 integrity

	layoutSnapshot = 0x01 // varint edge-list payload
	layoutMapped   = 0x02 // page-aligned CSR sections

	mappedPageSize = 4096
	// mappedHeaderFixed is the byte offset of the section table.
	mappedHeaderFixed = 40
	// mappedFooterLen is the CRC + trailer magic at the end of the file.
	mappedFooterLen = 8
)

// mappedTrailer is the little-endian u32 spelled "TKC2" that closes a
// mapped file; its presence distinguishes truncation from CRC damage.
var mappedTrailer = uint32('T') | uint32('K')<<8 | uint32('C')<<16 | uint32('2')<<24

// Section ids, in file order. OrigID sits last so the hot CSR arrays
// share leading pages.
const (
	secRowPtr = 1 + iota
	secAdjNbr
	secAdjEdgeID
	secEdgeU
	secEdgeV
	secOutPtr
	secOutNbr
	secOutEdgeID
	secOrigID
	mappedSectionCount = secOrigID
)

// mappedSection is one section-table entry.
type mappedSection struct {
	id, off, length uint64 // length in bytes
}

// mappedLayout is the computed file geometry for an (n, m) graph.
type mappedLayout struct {
	n, m     int
	sections [mappedSectionCount]mappedSection
	fileSize int64
}

// sectionCounts returns the int32 element count of each section for an
// (n, m) graph, indexed by section id - 1.
func sectionCounts(n, m int) [mappedSectionCount]int {
	return [mappedSectionCount]int{
		n + 1, // RowPtr
		2 * m, // AdjNbr
		2 * m, // AdjEdgeID
		m,     // EdgeU
		m,     // EdgeV
		n + 1, // OutPtr
		m,     // OutNbr
		m,     // OutEdgeID
		n,     // OrigID
	}
}

func pageAlign(off int64) int64 {
	return (off + mappedPageSize - 1) &^ (mappedPageSize - 1)
}

// computeMappedLayout lays the sections out page-aligned in id order.
func computeMappedLayout(n, m int) mappedLayout {
	lay := mappedLayout{n: n, m: m}
	counts := sectionCounts(n, m)
	off := pageAlign(mappedHeaderFixed + mappedSectionCount*24)
	for i, c := range counts {
		lay.sections[i] = mappedSection{id: uint64(i + 1), off: uint64(off), length: uint64(c) * 4}
		off = pageAlign(off + int64(c)*4)
	}
	lay.fileSize = off + mappedFooterLen
	return lay
}

// encodeMappedHeader writes the fixed header and section table into
// buf[0:mappedHeaderFixed+sections*24].
func (lay mappedLayout) encodeHeader(buf []byte) {
	copy(buf[0:4], tkcgMagic[:])
	buf[4] = tkcgVersion2
	buf[5] = layoutMapped
	buf[6], buf[7] = 0, 0
	le := binary.LittleEndian
	le.PutUint64(buf[8:], mappedPageSize)
	le.PutUint64(buf[16:], uint64(lay.n))
	le.PutUint64(buf[24:], uint64(lay.m))
	le.PutUint64(buf[32:], mappedSectionCount)
	for i, s := range lay.sections {
		base := mappedHeaderFixed + i*24
		le.PutUint64(buf[base:], s.id)
		le.PutUint64(buf[base+8:], s.off)
		le.PutUint64(buf[base+16:], s.length)
	}
}

// parseMappedHeader validates the header of a mapped file against the
// file size and returns the layout it describes. Every failure wraps
// ErrCorrupt except a wrong magic/version/layout, which is a format
// error (the file is not a mapped TKCG at all).
func parseMappedHeader(data []byte) (mappedLayout, error) {
	var lay mappedLayout
	// Identify the format before validating sizes, so a healthy file of
	// another TKCG layout reads as "wrong layout" (a format error the
	// caller can fall back from) rather than as corruption.
	if len(data) >= 4 && [4]byte(data[0:4]) != tkcgMagic {
		return lay, fmt.Errorf("graph: bad magic %q (not a TKCG file)", data[0:4])
	}
	if len(data) >= 6 && (data[4] != tkcgVersion2 || data[5] != layoutMapped) {
		return lay, fmt.Errorf("graph: TKCG version %d layout %d is not a mapped CSR (convert with layout csr)", data[4], data[5])
	}
	if len(data) < mappedHeaderFixed+mappedSectionCount*24+mappedFooterLen {
		return lay, fmt.Errorf("graph: %w: %d-byte file is too small for a mapped header", ErrCorrupt, len(data))
	}
	le := binary.LittleEndian
	if ps := le.Uint64(data[8:]); ps != mappedPageSize {
		return lay, fmt.Errorf("graph: %w: page size %d, want %d", ErrCorrupt, ps, mappedPageSize)
	}
	n, m := le.Uint64(data[16:]), le.Uint64(data[24:])
	const maxCount = 1 << 31 // mirrors the snapshot codec's bound
	if n >= maxCount || m >= maxCount/2 {
		return lay, fmt.Errorf("graph: %w: counts |V|=%d |E|=%d exceed int32 capacity", ErrCorrupt, n, m)
	}
	if sc := le.Uint64(data[32:]); sc != mappedSectionCount {
		return lay, fmt.Errorf("graph: %w: section count %d, want %d", ErrCorrupt, sc, mappedSectionCount)
	}
	want := computeMappedLayout(int(n), int(m))
	if int64(len(data)) != want.fileSize {
		return lay, fmt.Errorf("graph: %w: file is %d bytes, layout for |V|=%d |E|=%d needs %d",
			ErrCorrupt, len(data), n, m, want.fileSize)
	}
	for i, s := range want.sections {
		base := mappedHeaderFixed + i*24
		got := mappedSection{id: le.Uint64(data[base:]), off: le.Uint64(data[base+8:]), length: le.Uint64(data[base+16:])}
		if got != s {
			return lay, fmt.Errorf("graph: %w: section %d is {id %d, off %d, len %d}, want {id %d, off %d, len %d}",
				ErrCorrupt, i, got.id, got.off, got.length, s.id, s.off, s.length)
		}
	}
	return want, nil
}

// checkMappedFooter verifies the trailer magic and the whole-file CRC.
func checkMappedFooter(data []byte) error {
	le := binary.LittleEndian
	tail := data[len(data)-mappedFooterLen:]
	if got := le.Uint32(tail[4:]); got != mappedTrailer {
		return fmt.Errorf("graph: %w: trailer %#x, want %#x (truncated write?)", ErrCorrupt, got, mappedTrailer)
	}
	want := le.Uint32(tail[:4])
	if got := crc32.ChecksumIEEE(data[:len(data)-mappedFooterLen]); got != want {
		return fmt.Errorf("graph: %w: CRC32 %#x, want %#x", ErrCorrupt, got, want)
	}
	return nil
}

// sealMapped stamps the CRC + trailer over the last 8 bytes of data.
func sealMapped(data []byte) {
	le := binary.LittleEndian
	tail := data[len(data)-mappedFooterLen:]
	le.PutUint32(tail[:4], crc32.ChecksumIEEE(data[:len(data)-mappedFooterLen]))
	le.PutUint32(tail[4:], mappedTrailer)
}

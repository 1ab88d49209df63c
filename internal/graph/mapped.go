package graph

import (
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"unsafe"
)

// This file implements the TKCG v2 mapped layout (see format.go): a
// page-aligned on-disk CSR that OpenMapped serves as a read-only
// *Static directly off the page cache, and a streaming two-pass builder
// that converts edge lists bigger than RAM without ever materializing
// the edge set in memory.

// hostLittleEndian reports whether the running machine stores integers
// little-endian. The mapped format is defined little-endian and served
// zero-copy, so big-endian hosts are refused rather than silently
// misread.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// int32Slice aliases b's prefix as count int32 values without copying.
// Sections are page-aligned in the file and heap buffers are at least
// word-aligned, so the alignment check never fires in practice; it
// turns a violated assumption into a crash instead of corruption.
func int32Slice(b []byte, count int) []int32 {
	if count == 0 {
		return nil
	}
	if uintptr(unsafe.Pointer(&b[0]))%4 != 0 {
		panic("graph: misaligned int32 section")
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), count)
}

// flat aliases the section arrays of the mapped file image data.
func (lay mappedLayout) flat(data []byte) flatCSR {
	sec := func(id int) []int32 {
		s := lay.sections[id-1]
		return int32Slice(data[s.off:s.off+s.length], int(s.length/4))
	}
	return flatCSR{
		orig:   sec(secOrigID),
		rowPtr: sec(secRowPtr), adjNbr: sec(secAdjNbr), adjEID: sec(secAdjEdgeID),
		edgeU: sec(secEdgeU), edgeV: sec(secEdgeV),
		outPtr: sec(secOutPtr), outNbr: sec(secOutNbr), outEID: sec(secOutEdgeID),
	}
}

// Mapped is a read-only Static view served from an mmap'd TKCG v2 file.
// The flat arrays alias the mapping: they cost address space, not heap,
// and the kernel pages them in on demand and evicts them under memory
// pressure. Only the view's block and page tables (O(|V|/blockRows +
// |E|/pageEdges)) live on the Go heap; vertex lookups binary-search the
// mapped OrigID.
// Close unmaps the arrays; using the Static after Close faults.
type Mapped struct {
	s    *Static
	fm   *fileMap
	path string
	size int64
}

// Static returns the mapped CSR view. It satisfies every *Static
// algorithm (decomposition, triangle kernels) byte-for-byte like a
// FreezeStatic of the same graph.
func (m *Mapped) Static() *Static { return m.s }

// Path returns the file the view is mapped from.
func (m *Mapped) Path() string { return m.path }

// SizeBytes returns the on-disk (and address-space) size of the mapping.
func (m *Mapped) SizeBytes() int64 { return m.size }

// Close releases the mapping. The Static view must not be used after.
func (m *Mapped) Close() error { return m.fm.unmap() }

// OpenMapped maps the named TKCG v2 CSR file and returns it as a
// read-only graph view. The whole file is CRC-verified and structurally
// validated before use (one sequential read — it doubles as page-cache
// warm-up for the header pages); corrupt files fail with ErrCorrupt.
func OpenMapped(path string) (*Mapped, error) {
	if !hostLittleEndian {
		return nil, fmt.Errorf("graph: mapped TKCG files require a little-endian host")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		return nil, errors.Join(fmt.Errorf("graph: %w", err), f.Close())
	}
	fm, err := mapFile(f, st.Size(), false)
	if err != nil {
		return nil, errors.Join(err, f.Close())
	}
	m, err := openMappedData(fm, path, st.Size())
	if err != nil {
		return nil, errors.Join(err, fm.unmap())
	}
	return m, nil
}

func openMappedData(fm *fileMap, path string, size int64) (*Mapped, error) {
	lay, err := parseMappedHeader(fm.data)
	if err != nil {
		return nil, err
	}
	if err := checkMappedFooter(fm.data); err != nil {
		return nil, err
	}
	f := lay.flat(fm.data)
	if err := f.validate(lay.n, lay.m); err != nil {
		return nil, err
	}
	s := f.static()
	return &Mapped{s: s, fm: fm, path: path, size: size}, nil
}

// validate structurally checks the mapped arrays so a file with a forged
// CRC still cannot drive an algorithm out of bounds: monotone row
// pointers, sorted in-range rows, canonical sorted edges. Cross-array
// consistency (edge ids matching rows) is covered by the CRC; this pass
// only guards the indexing invariants algorithms rely on.
func (f flatCSR) validate(n, m int) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("graph: %w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
	if f.rowPtr[0] != 0 || int(f.rowPtr[n]) != 2*m {
		return bad("RowPtr spans [%d, %d], want [0, %d]", f.rowPtr[0], f.rowPtr[n], 2*m)
	}
	if f.outPtr[0] != 0 || int(f.outPtr[n]) != m {
		return bad("OutPtr spans [%d, %d], want [0, %d]", f.outPtr[0], f.outPtr[n], m)
	}
	for u := 0; u < n; u++ {
		if f.rowPtr[u+1] < f.rowPtr[u] || f.outPtr[u+1] < f.outPtr[u] {
			return bad("row pointers for vertex %d decrease", u)
		}
		if u > 0 && f.orig[u] <= f.orig[u-1] {
			return bad("OrigID not strictly increasing at %d", u)
		}
		prev := int32(-1)
		for p := f.rowPtr[u]; p < f.rowPtr[u+1]; p++ {
			w := f.adjNbr[p]
			if w < 0 || int(w) >= n || w <= prev || int(w) == u {
				return bad("adjacency row of vertex %d is not a sorted self-loop-free vertex list", u)
			}
			if id := f.adjEID[p]; id < 0 || int(id) >= m {
				return bad("edge id %d out of range in row %d", id, u)
			}
			prev = w
		}
		for p := f.outPtr[u]; p < f.outPtr[u+1]; p++ {
			w := f.outNbr[p]
			if w < 0 || int(w) >= n || (p > f.outPtr[u] && w <= f.outNbr[p-1]) {
				return bad("oriented row of vertex %d is not sorted in range", u)
			}
			if id := f.outEID[p]; id < 0 || int(id) >= m {
				return bad("edge id %d out of range in oriented row %d", id, u)
			}
		}
	}
	for i := 0; i < m; i++ {
		u, v := f.edgeU[i], f.edgeV[i]
		if u < 0 || v < 0 || int(u) >= n || int(v) >= n || u >= v {
			return bad("edge %d endpoints (%d, %d) are not canonical in-range positions", i, u, v)
		}
		if i > 0 && (u < f.edgeU[i-1] || (u == f.edgeU[i-1] && v <= f.edgeV[i-1])) {
			return bad("edge list not in strict lexicographic order at %d", i)
		}
	}
	return nil
}

// WriteMapped serializes an in-memory Static view to the named file in
// the TKCG v2 mapped layout, writing a temp file and renaming it into
// place so readers never observe a partial file. A view that is not
// flat-numbered, such as one an engine froze after a deletion, is
// renumbered through FreezeStatic first, so the result is byte-identical
// to what BuildMappedFile produces for the same graph and OpenMapped
// reads every view back.
func WriteMapped(path string, s *Static) error {
	if !hostLittleEndian {
		return fmt.Errorf("graph: mapped TKCG files require a little-endian host")
	}
	if !s.flatNumbered() {
		return WriteMapped(path, FreezeStatic(s.Materialize()))
	}
	n, m := s.NumVertices(), s.NumEdges()
	lay := computeMappedLayout(n, m)
	buf := make([]byte, lay.fileSize)
	lay.encodeHeader(buf)
	s.flatten(lay.flat(buf))
	sealMapped(buf)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return fmt.Errorf("graph: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return errors.Join(fmt.Errorf("graph: %w", err), os.Remove(tmp))
	}
	return nil
}

// MappedBuildStats reports what BuildMappedFile wrote.
type MappedBuildStats struct {
	// Vertices and Edges are the deduplicated graph dimensions.
	Vertices, Edges int
	// Mentions counts input edge lines (duplicates and reversed
	// orientations included).
	Mentions int64
	// FileBytes is the size of the finished .tkcg file.
	FileBytes int64
}

// maxMappedMentions bounds the raw edge-line count the builder accepts:
// 2 × mentions provisional adjacency entries must stay indexable by
// int32 with headroom for the prefix sums.
const maxMappedMentions = 1 << 30

// BuildMappedFile streams the edge-list file at inPath into a TKCG v2
// mapped CSR at outPath without ever holding the edge set in memory.
// Resident memory is O(|V|) (degree counts, the intern table and row
// cursors); the adjacency bulk lives in two file mappings — a scratch
// rows file (outPath + ".rows", deleted on success) holding the
// duplicate-tolerant provisional rows, and the output itself, filled in
// place. The builder makes two scans of the input:
//
//	pass 1: count degrees and collect distinct vertex ids
//	pass 2: scatter dense neighbor positions into the scratch rows
//
// then sorts and deduplicates each row, packs the final CSR (identical
// byte-for-byte to FreezeStatic of the parsed graph), builds the
// degree-oriented half, and seals the CRC footer. Self-loops are
// rejected; duplicate edges and both orientations are tolerated.
func BuildMappedFile(inPath, outPath string) (MappedBuildStats, error) {
	var stats MappedBuildStats
	if !hostLittleEndian {
		return stats, fmt.Errorf("graph: mapped TKCG files require a little-endian host")
	}

	// Pass 1: degrees (duplicate mentions included) and the vertex set.
	deg := make(map[Vertex]int32)
	mentions := int64(0)
	err := ScanEdgeListFile(inPath, func(u, v Vertex) error {
		mentions++
		if mentions > maxMappedMentions {
			return fmt.Errorf("graph: %s: more than %d edge lines", inPath, maxMappedMentions)
		}
		deg[u]++
		deg[v]++
		return nil
	})
	if err != nil {
		return stats, err
	}
	n := len(deg)
	stats.Mentions = mentions
	if n >= math.MaxInt32 {
		return stats, fmt.Errorf("graph: %s: vertex count %d exceeds int32 capacity", inPath, n)
	}
	verts := make([]Vertex, 0, n)
	for v := range deg {
		verts = append(verts, v)
	}
	slices.Sort(verts)
	pos := make(map[Vertex]int32, n)
	for i, v := range verts {
		pos[v] = int32(i) //trikcheck:checked n < MaxInt32 guarded above
	}

	// Provisional row bounds over the duplicate-tolerant mention counts.
	// The total is 2 × mentions ≤ 2^31, so int32 prefix sums are safe.
	bound := make([]int32, n+1)
	for i, v := range verts {
		bound[i+1] = bound[i] + deg[v]
	}
	deg = nil

	// Pass 2: scatter dense positions into the scratch rows mapping.
	scratchPath := outPath + ".rows"
	scratch, err := createSized(scratchPath, 2*mentions*4)
	if err != nil {
		return stats, err
	}
	cleanupScratch := func() error {
		if scratch == nil {
			return nil // zero mentions: no scratch file was created
		}
		err := scratch.unmap()
		scratch = nil
		return errors.Join(err, os.Remove(scratchPath))
	}
	var adj []int32
	if scratch != nil {
		adj = int32Slice(scratch.data, int(2*mentions))
	}
	cur := make([]int32, n)
	copy(cur, bound[:n])
	err = ScanEdgeListFile(inPath, func(u, v Vertex) error {
		pu, okU := pos[u]
		pv, okV := pos[v]
		if !okU || !okV || cur[pu] >= bound[pu+1] || cur[pv] >= bound[pv+1] {
			return fmt.Errorf("graph: %s changed between builder passes", inPath)
		}
		adj[cur[pu]] = pv
		cur[pu]++
		adj[cur[pv]] = pu
		cur[pv]++
		return nil
	})
	if err != nil {
		return stats, errors.Join(err, cleanupScratch())
	}
	for i := range cur {
		if cur[i] != bound[i+1] {
			return stats, errors.Join(
				fmt.Errorf("graph: %s changed between builder passes", inPath), cleanupScratch())
		}
	}

	// Sort and deduplicate each provisional row in place; the compacted
	// prefix of each row is the final adjacency row.
	finalLen := make([]int32, n)
	total := int64(0)
	for u := 0; u < n; u++ {
		row := adj[bound[u]:bound[u+1]]
		slices.Sort(row)
		k := 0
		for p, w := range row {
			if p == 0 || w != row[p-1] {
				row[k] = w
				k++
			}
		}
		finalLen[u] = int32(k) //trikcheck:checked k ≤ len(row) ≤ 2·maxMappedMentions, int32-safe
		total += int64(k)
	}
	if total%2 != 0 {
		return stats, errors.Join(fmt.Errorf("graph: internal error: odd adjacency total %d", total), cleanupScratch())
	}
	m := int(total / 2)
	stats.Vertices, stats.Edges = n, m

	// Lay out and fill the output file in place, then seal and rename.
	lay := computeMappedLayout(n, m)
	stats.FileBytes = lay.fileSize
	tmpPath := outPath + ".tmp"
	out, err := createSized(tmpPath, lay.fileSize)
	if err != nil {
		return stats, errors.Join(err, cleanupScratch())
	}
	if err := fillMapped(out.data, lay, verts, bound, finalLen, adj); err != nil {
		return stats, errors.Join(err, out.unmap(), os.Remove(tmpPath), cleanupScratch())
	}
	sealMapped(out.data)
	if err := out.unmap(); err != nil {
		return stats, errors.Join(err, os.Remove(tmpPath), cleanupScratch())
	}
	if err := cleanupScratch(); err != nil {
		return stats, errors.Join(err, os.Remove(tmpPath))
	}
	if err := os.Rename(tmpPath, outPath); err != nil {
		return stats, errors.Join(fmt.Errorf("graph: %w", err), os.Remove(tmpPath))
	}
	return stats, nil
}

// createSized creates (truncating) a file of exactly size bytes and
// returns it mapped writable. A zero size returns (nil, nil): there is
// nothing to map and callers skip the file.
func createSized(path string, size int64) (*fileMap, error) {
	if size == 0 {
		return nil, nil
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	if err := f.Truncate(size); err != nil {
		return nil, errors.Join(fmt.Errorf("graph: sizing %s: %w", path, err), f.Close())
	}
	fm, err := mapFile(f, size, true)
	if err != nil {
		return nil, errors.Join(err, f.Close())
	}
	return fm, nil
}

// fillMapped writes every section of the output mapping: the header,
// the compacted symmetric CSR, the lexicographic edge-id assignment and
// the degree-oriented half, both through the flat builders' passes.
func fillMapped(data []byte, lay mappedLayout, verts []Vertex, bound, finalLen, adj []int32) error {
	n, m := lay.n, lay.m
	lay.encodeHeader(data)
	f := lay.flat(data)
	rowPtr, adjNbr := f.rowPtr, f.adjNbr
	copy(f.orig, verts)

	rowPtr[0] = 0
	for u := 0; u < n; u++ {
		rowPtr[u+1] = rowPtr[u] + finalLen[u]
		copy(adjNbr[rowPtr[u]:rowPtr[u+1]], adj[bound[u]:bound[u]+finalLen[u]])
	}
	if int(rowPtr[n]) != 2*m {
		return fmt.Errorf("graph: internal error: row total %d, want %d", rowPtr[n], 2*m)
	}

	f.fillEdgeIDs()
	f.fillOriented()
	return nil
}

package graph

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// ReadEdgeListFunc streams a whitespace-separated edge list from r,
// calling fn once per edge line without accumulating anything: the
// caller decides whether edges land in a Graph, a degree counter or an
// on-disk builder, so inputs larger than RAM parse in constant memory.
// Each non-empty line holds two non-negative integer vertex ids, split
// from further fields by Unicode white space; lines whose first field
// starts with '#' or '%' are comments. Duplicate edges and both
// orientations of the same edge are passed through as-is; negative ids
// and self-loops are rejected. If fn returns an error the scan stops and
// that error is returned. Lines are tokenized in the scanner's buffer,
// so a well-formed line allocates nothing.
func ReadEdgeListFunc(r io.Reader, fn func(u, v Vertex) error) error {
	return scanEdgeList(r, 1, fn)
}

// scanEdgeList is ReadEdgeListFunc with the first line of r numbered
// firstLine in error texts.
func scanEdgeList(r io.Reader, firstLine int, fn func(u, v Vertex) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLine)
	lineNo := firstLine - 1
	for sc.Scan() {
		lineNo++
		f0, rest := cutField(sc.Bytes())
		if len(f0) == 0 || f0[0] == '#' || f0[0] == '%' {
			continue
		}
		f1, _ := cutField(rest)
		if len(f1) == 0 {
			return fmt.Errorf("graph: line %d: want at least 2 fields, got 1", lineNo)
		}
		u, err := strconv.ParseInt(string(f0), 10, 32)
		if err != nil {
			return fmt.Errorf("graph: line %d: bad vertex %q: %w", lineNo, f0, err)
		}
		v, err := strconv.ParseInt(string(f1), 10, 32)
		if err != nil {
			return fmt.Errorf("graph: line %d: bad vertex %q: %w", lineNo, f1, err)
		}
		if u < 0 || v < 0 {
			return fmt.Errorf("graph: line %d: negative vertex id in %q", lineNo, bytes.TrimSpace(sc.Bytes()))
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

// maxLine is the scanner's token limit: a line of maxLine bytes or more,
// not counting its newline, fails with bufio.ErrTooLong.
const maxLine = 16 * 1024 * 1024

// cutField splits off the first field of s as strings.Fields splits
// fields, at Unicode white space, and returns it with the rest of s
// after it; field is empty when s holds only white space. ASCII bytes
// are tested against the ASCII members of unicode.IsSpace; from the
// first byte at or above utf8.RuneSelf, the rest of s is decoded and
// tested with unicode.IsSpace itself, so U+0085, U+00A0 and U+3000
// separate fields and invalid UTF-8 is part of one.
func cutField(s []byte) (field, rest []byte) {
	i := 0
	for i < len(s) && isASCIISpace(s[i]) {
		i++
	}
	if i < len(s) && s[i] >= utf8.RuneSelf {
		s, i = bytes.TrimLeftFunc(s[i:], unicode.IsSpace), 0
	}
	for j := i; j < len(s); j++ {
		if c := s[j]; isASCIISpace(c) {
			return s[i:j], s[j:]
		} else if c >= utf8.RuneSelf {
			if k := bytes.IndexFunc(s[j:], unicode.IsSpace); k >= 0 {
				return s[i : j+k], s[j+k:]
			}
			return s[i:], nil
		}
	}
	return s[i:], nil
}

// isASCIISpace reports whether c is one of the ASCII bytes unicode.IsSpace
// accepts: '\t', '\n', '\v', '\f', '\r' (contiguous) and ' '.
func isASCIISpace(c byte) bool { return c == ' ' || c-'\t' <= '\r'-'\t' }

// ReadEdgeList parses a whitespace-separated edge list from r into a
// Graph. It is ReadEdgeListFunc with edges accumulated and the graph
// built in bulk, like FromEdges: duplicate edges and both orientations
// of the same edge are tolerated; self-loops are rejected. The input is
// read whole first, so the edge keys are allocated once, sized by its
// line count, and parsed in parallel chunks.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	return readEdgeList(data)
}

// parallelParseMin is the input size, in bytes, below which the bulk
// loaders parse in one chunk: smaller inputs were not faster in two
// (DESIGN.md §6 has the measurement).
const parallelParseMin = 64 * 1024

// readEdgeList is ReadEdgeList over the whole input: one chunk per
// GOMAXPROCS from parallelParseMin bytes on.
func readEdgeList(data []byte) (*Graph, error) {
	chunks := 1
	if len(data) >= parallelParseMin {
		chunks = runtime.GOMAXPROCS(0)
	}
	keys, err := parseEdgeKeys(data, chunks)
	if err != nil {
		return nil, err
	}
	return fromPairKeys(keys), nil
}

// parseEdgeKeys parses data as ReadEdgeListFunc does and returns the
// appendPair keys of its edges, in file order. It cuts data after
// newlines into up to chunks pieces of about equal size and runs
// scanEdgeList on each in parallel. Newline counts give each piece its
// first line number and its region of one key array, two keys per line;
// each piece fills its region from the front, and the regions are then
// moved together. Every line lies whole in one piece, so the error
// returned, the one of the earliest failing piece, is the streaming
// parser's.
func parseEdgeKeys(data []byte, chunks int) ([]int64, error) {
	type piece struct {
		data   []byte
		line   int     // number of its first line
		lo, hi int     // its key region
		keys   []int64 // the keys it parsed, at the front of its region
		err    error
	}
	ps := make([]piece, 0, chunks)
	line, off := 1, 0
	for ; chunks > 0 && len(data) > 0; chunks-- {
		cut := len(data)
		if chunks > 1 {
			if k := bytes.IndexByte(data[len(data)/chunks:], '\n'); k >= 0 {
				cut = len(data)/chunks + k + 1
			}
		}
		lines := bytes.Count(data[:cut], []byte{'\n'})
		if data[cut-1] != '\n' {
			lines++
		}
		ps = append(ps, piece{data: data[:cut], line: line, lo: off, hi: off + 2*lines})
		line, off, data = line+lines, off+2*lines, data[cut:]
	}
	keys := make([]int64, off)
	parallelDo(len(ps), func(i int) {
		p := &ps[i]
		p.keys = keys[p.lo:p.lo:p.hi]
		p.err = scanEdgeList(bytes.NewReader(p.data), p.line, func(u, v Vertex) error {
			p.keys = appendPair(p.keys, u, v)
			return nil
		})
	})
	n := 0
	for _, p := range ps {
		if p.err != nil {
			return nil, p.err
		}
		n += copy(keys[n:], p.keys)
	}
	return keys[:n], nil
}

// ScanEdgeListFile opens the named file and streams it through
// ReadEdgeListFunc. Multi-pass consumers (the on-disk CSR builder) call
// it once per pass instead of holding the parsed edges.
func ScanEdgeListFile(path string, fn func(u, v Vertex) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("graph: %w", err)
	}
	defer f.Close()
	return ReadEdgeListFunc(f, fn)
}

// WriteEdgeList writes g as a sorted edge list ("u v" per line) to w.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "%d %d\n", e.U, e.V); err != nil {
			return fmt.Errorf("graph: writing edge list: %w", err)
		}
	}
	return bw.Flush()
}

// LoadEdgeListFile reads an edge list from the named file, as
// ReadEdgeList.
func LoadEdgeListFile(path string) (*Graph, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	return readEdgeList(data)
}

// SaveEdgeListFile writes g to the named file as an edge list.
func SaveEdgeListFile(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("graph: %w", err)
	}
	if err := WriteEdgeList(f, g); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}

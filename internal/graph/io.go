package graph

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"unicode"
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
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
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

// cutField splits off the first field of s as strings.Fields splits
// fields, at Unicode white space, and returns it with the rest of s
// after it; field is empty when s holds only white space.
func cutField(s []byte) (field, rest []byte) {
	s = bytes.TrimLeftFunc(s, unicode.IsSpace)
	if i := bytes.IndexFunc(s, unicode.IsSpace); i >= 0 {
		return s[:i], s[i:]
	}
	return s, nil
}

// ReadEdgeList parses a whitespace-separated edge list from r into a
// Graph. It is ReadEdgeListFunc with edges accumulated and the graph
// built in bulk, like FromEdges: duplicate edges and both orientations
// of the same edge are tolerated; self-loops are rejected. The input is
// read whole first, so the edge keys are allocated once, sized by its
// line count.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	return readEdgeList(data)
}

// readEdgeList is ReadEdgeList over the whole input.
func readEdgeList(data []byte) (*Graph, error) {
	keys := make([]int64, 0, 2*(bytes.Count(data, []byte{'\n'})+1))
	if err := ReadEdgeListFunc(bytes.NewReader(data), func(u, v Vertex) error {
		keys = appendPair(keys, u, v)
		return nil
	}); err != nil {
		return nil, err
	}
	return fromPairKeys(keys), nil
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

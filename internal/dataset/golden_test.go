package dataset

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"trikcore/internal/graph"
)

// TestGeneratorsGolden pins the graphs the generators build for the
// datasets cmd/perfbench runs (serve and ingest use Epinions, watched
// Astro-Author at 0.03) and for the small Table I entries: the SHA-256
// of the WriteEdgeList bytes and of the sorted vertex list, one decimal
// id per line. A change to the graph substrate or a generator that moves
// any benchmark input fails here instead of silently changing what the
// benchmark measures.
func TestGeneratorsGolden(t *testing.T) {
	for _, tc := range []struct {
		name     string
		fraction float64 // 1 = the cached full-size stand-in
		edges    string  // SHA-256 of WriteEdgeList
		verts    string  // SHA-256 of the sorted vertex ids
	}{
		{"Synthetic", 1,
			"50e761b50a7baf216bf23f11e201b67d9cb41c740efac977f6c3ec33e3294231",
			"cd0a6cb6d4176558a28e9b2569fab1563cebfdb4d3139dc84acaebc17f9ec7fa"},
		{"Stocks", 1,
			"cd800f5c109a935758bd8c273cf9c62a5616e42a99ae944be118158c2e7c7e2a",
			"73df3a85cdd4d116efeaa2422a7900e213405fdd032db9f726f07a52fe626dab"},
		{"PPI", 1,
			"10b91bcf4df0e3af8caf4c30f27768ae75ae874c23fd88f303e5a822dfe7af71",
			"65a6019fff0e942b912b89a9d85176833e0edfacd45c57d1c8e9215213a3dc2e"},
		{"DBLP", 1,
			"2656ec236f2669dfb382f666d98e897ceb4c109dc8e8642711348844c2a007a0",
			"fe7e2c2f728d5c02e9f75e2b3bbaf90d48d0915c54ff420893ac0c499e75d26c"},
		{"Astro-Author", 1,
			"ace41e2811ec28da18f17f9689014254dacdbee5f6e5a022a882cac916791ea1",
			"5abf6913307458672f811e4ac13adc03e9187d63ace6be6890c2057db596932b"},
		{"Epinions", 1,
			"bd23f90ed0a337e6ed161cf8de3a8bf659c8d0bf8cb113a1a367ad5f59bcc36f",
			"0427e5fc2ae7bd5f6ad3fb8530116027d8e467da5450d2d537e6ea17caaa5e92"},
		{"Astro-Author", 0.03,
			"7fce9b2cf3e6c71ee3666bdeed33bef22362520de9ed50ac89cd5b7081b2cbf3",
			"d3f5a6733ee7cb8f6940366345103e2b4a5d1eb8684288e49a4baf6da9b2b7e6"},
	} {
		d, ok := ByName(tc.name)
		if !ok {
			t.Fatalf("dataset %s missing", tc.name)
		}
		g := d.Graph()
		if tc.fraction != 1 {
			g = d.GenerateAt(tc.fraction)
		}
		var buf bytes.Buffer
		if err := graph.WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		edges := sha256.Sum256(buf.Bytes())
		buf.Reset()
		for _, v := range g.Vertices() {
			fmt.Fprintf(&buf, "%d\n", v)
		}
		verts := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(edges[:]); got != tc.edges {
			t.Errorf("%s@%v: edge list SHA-256 %s, want %s", tc.name, tc.fraction, got, tc.edges)
		}
		if got := hex.EncodeToString(verts[:]); got != tc.verts {
			t.Errorf("%s@%v: vertex list SHA-256 %s, want %s", tc.name, tc.fraction, got, tc.verts)
		}
	}
}

package expt

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"trikcore/internal/table"
)

// TestFigurePlotsGolden pins the SVG bytes of Figures 6–8 at scale 0.05
// (the density plots of Figure 6's four graphs under both orderings'
// values, Figure 7's PPI plot and Figure 8's dual view) by SHA-256, so a
// change to the ordering, the dual-view builder or the renderer that
// moves any plotted vertex or height fails here.
func TestFigurePlotsGolden(t *testing.T) {
	want := map[string]string{
		"figure6_Synthetic_trikcore.svg": "0debbf20e51ee6ae859e0aa0bffabc59c59649a1edc36802c87969c2804b2ce1",
		"figure6_Synthetic_csv.svg":      "480e210a9b935500728b05857c8ae3f86cee64ee9ef2d0a90a8719de341a5404",
		"figure6_Stocks_trikcore.svg":    "d7527c251f96d3a1ccb87ab2813f4d22e944c7012fb49c3fb6e57440eaec44ca",
		"figure6_Stocks_csv.svg":         "1c9a377ff789110e7023d9ed5bd24b7277c7c830afc99a78de3021fabd7f7721",
		"figure6_PPI_trikcore.svg":       "2ee108fbf2a3e3f790161e555ee99b82f0c6b528190f3fd503dc0d56f3d76243",
		"figure6_PPI_csv.svg":            "55831006182ebd630255f0490a50f9f9708ee2de2ebf60bd72b36524f4403724",
		"figure6_DBLP_trikcore.svg":      "cadbd751b0ade34688b88c2d2c643eb612f9cf15c0423bfddfe38c5218bb7854",
		"figure6_DBLP_csv.svg":           "9eebe32093d1fb4b22a8d96b60290b5806bd40916d35ae1ab13f2544b893f601",
		"figure7_ppi.svg":                "d1ed1dca56729b56137e621fc825807a20f3ea75927e15d0119bb7f871249a49",
		"figure8_before.svg":             "9ce53f928818ae94cfb9f3db815a84dc5be3dc0713503d1713b84e70db51c2fc",
		"figure8_after.svg":              "006486f28e55da4628b79643ae54c44f6aea99b17cfec2bbeed0a6849fee287a",
	}
	dir := t.TempDir()
	cfg := Config{Scale: 0.05, Runs: 1, PlotDir: dir}
	for _, run := range []func(Config) (*table.Table, error){Figure6, Figure7, Figure8} {
		if _, err := run(cfg); err != nil {
			t.Fatal(err)
		}
	}
	written, _ := filepath.Glob(filepath.Join(dir, "*.svg"))
	if len(written) != len(want) {
		t.Errorf("wrote %d SVGs, want %d", len(written), len(want))
	}
	for name, sum := range want {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		got := sha256.Sum256(data)
		if h := hex.EncodeToString(got[:]); h != sum {
			t.Errorf("%s: SHA-256 %s, want %s", name, h, sum)
		}
	}
}

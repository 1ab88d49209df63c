package view

import (
	"strings"
	"testing"

	"trikcore/internal/dynamic"
	"trikcore/internal/graph"
	"trikcore/internal/obs"
)

// triangleGraph builds a single triangle.
func triangleGraph() *graph.Graph {
	g := graph.New()
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(1, 3)
	return g
}

func TestPublisherInstrument(t *testing.T) {
	reg := obs.NewRegistry()
	p := NewPublisherFromGraph(triangleGraph())
	p.Instrument(reg)

	// First derived-artifact access computes (miss), the second hits. The
	// density series pulls co_clique underneath, so that artifact records
	// too.
	sn := p.Acquire()
	sn.DensitySeries()
	sn.DensitySeries()

	// An effective mutation republishes and moves the version gauge.
	p.Apply([]dynamic.EdgeOp{{U: 1, V: 4}})
	// A no-op batch must not republish.
	before := reg.Gather()
	p.Apply([]dynamic.EdgeOp{{U: 1, V: 2}}) // already present
	if string(before) != string(reg.Gather()) {
		t.Error("no-op Apply changed metrics (unexpected republish)")
	}

	expo := string(reg.Gather())
	for _, want := range []string{
		// Instrument republishes once, Apply once more.
		"trikcore_publisher_publishes_total 2",
		"trikcore_publisher_publish_seconds_count 2",
		`trikcore_publisher_memo_requests_total{artifact="density_series",result="miss"} 1`,
		`trikcore_publisher_memo_requests_total{artifact="density_series",result="hit"} 1`,
		`trikcore_publisher_memo_requests_total{artifact="co_clique",result="miss"} 1`,
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("exposition missing %q in:\n%s", want, expo)
		}
	}
	wantVersion := "trikcore_publisher_snapshot_version "
	if !strings.Contains(expo, wantVersion) {
		t.Errorf("exposition missing %q", wantVersion)
	}
	if v := p.Acquire().Version; v == sn.Version {
		t.Error("Apply of a new edge did not move the version")
	}
}

func TestPublisherInstrumentNop(t *testing.T) {
	p := NewPublisherFromGraph(triangleGraph())
	p.Instrument(obs.Nop())
	if p.mt != nil {
		t.Fatal("Nop registry must leave the publisher uninstrumented")
	}
	sn := p.Acquire()
	if sn.mt != nil {
		t.Fatal("snapshot of an uninstrumented publisher carries metrics")
	}
	sn.PlotASCII() // memo path must work without accounting
}

func TestArtifactOfCoversAllKeys(t *testing.T) {
	cases := map[any]string{
		keyCoClique:     "co_clique",
		keyCoCliqueMap:  "co_clique_map",
		keySeries:       "density_series",
		keyPlotSVG:      "plot_svg",
		keyPlotASCII:    "plot_ascii",
		keyGraph:        "graph",
		keyKappaChanges: "kappa_changes",
		commsKey(2):     "communities",
		commListKey(2):  "communities_at",
		dualKey(7):      "dualview",
		dualSVGKey(7):   "dualview_svg",
		"bogus":         "other",
	}
	known := make(map[string]bool, len(memoArtifacts))
	for _, a := range memoArtifacts {
		known[a] = true
	}
	for key, want := range cases {
		got := artifactOf(key)
		if got != want {
			t.Errorf("artifactOf(%v) = %q, want %q", key, got, want)
		}
		if want != "other" && !known[want] {
			t.Errorf("artifact %q not in memoArtifacts (no counters registered)", want)
		}
	}
}

package registry

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"trikcore/internal/dynamic"
	"trikcore/internal/graph"
	"trikcore/internal/obs"
)

// k5 returns a complete graph on vertices 0..4 (every edge κ=3) plus a
// pendant edge 10-11 (κ=0) — the same fixture the server tests use.
func k5() *graph.Graph {
	g := graph.New()
	for u := graph.Vertex(0); u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			g.AddEdge(u, v)
		}
	}
	g.AddEdge(10, 11)
	return g
}

func add(u, v graph.Vertex) dynamic.EdgeOp { return dynamic.EdgeOp{U: u, V: v} }
func del(u, v graph.Vertex) dynamic.EdgeOp { return dynamic.EdgeOp{U: u, V: v, Del: true} }

func TestLifecycle(t *testing.T) {
	r := New(Config{})
	if _, err := r.Create("alpha", k5()); err != nil {
		t.Fatalf("create alpha: %v", err)
	}
	if _, err := r.Create("beta", nil); err != nil {
		t.Fatalf("create beta: %v", err)
	}
	if _, err := r.Create("alpha", nil); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: %v, want ErrExists", err)
	}
	if got := r.List(); len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("List() = %v", got)
	}
	sp, ok := r.Get("alpha")
	if !ok {
		t.Fatal("Get(alpha) missed")
	}
	if sp.Acquire().NumEdges() != 11 {
		t.Fatalf("alpha edges = %d, want 11", sp.Acquire().NumEdges())
	}
	if err := r.Delete("alpha"); err != nil {
		t.Fatalf("delete alpha: %v", err)
	}
	if err := r.Delete("alpha"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v, want ErrNotFound", err)
	}
	if _, ok := r.Get("alpha"); ok {
		t.Fatal("deleted graph still resolvable")
	}
	// The name is immediately reusable after deletion.
	if _, err := r.Create("alpha", nil); err != nil {
		t.Fatalf("recreate alpha: %v", err)
	}
	if r.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", r.Len())
	}
}

func TestNameValidation(t *testing.T) {
	good := []string{"default", "a", "g1", "my-graph", "a.b_c", "0x9",
		strings.Repeat("x", 64)}
	bad := []string{"", "-lead", "_other", ".dot", "has space", "a/b",
		strings.Repeat("x", 65), "ümlaut"}
	for _, name := range good {
		if !ValidName(name) {
			t.Errorf("ValidName(%q) = false, want true", name)
		}
	}
	for _, name := range bad {
		if ValidName(name) {
			t.Errorf("ValidName(%q) = true, want false", name)
		}
	}
	r := New(Config{})
	if _, err := r.Create("bad name", nil); !errors.Is(err, ErrInvalidName) {
		t.Fatalf("create with bad name: %v", err)
	}
}

func TestMaxGraphsCap(t *testing.T) {
	r := New(Config{MaxGraphs: 2})
	for _, name := range []string{"a", "b"} {
		if _, err := r.Create(name, nil); err != nil {
			t.Fatalf("create %s: %v", name, err)
		}
	}
	if _, err := r.Create("c", nil); !errors.Is(err, ErrRegistryFull) {
		t.Fatalf("over-cap create: %v, want ErrRegistryFull", err)
	}
	// Deleting frees the slot.
	if err := r.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create("c", nil); err != nil {
		t.Fatalf("create after delete: %v", err)
	}
}

func TestQuotaRejectionIsAtomic(t *testing.T) {
	r := New(Config{Quotas: Quotas{MaxEdges: 12}})
	sp, err := r.Create("g", k5()) // 11 edges
	if err != nil {
		t.Fatal(err)
	}
	v0 := sp.Acquire().Version

	// 11 + 2 > 12: the whole batch must bounce, including the op that
	// alone would have fit.
	_, _, err = sp.Apply([]dynamic.EdgeOp{add(20, 21), add(21, 22)})
	var qe *QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("over-quota apply: %v, want QuotaError", err)
	}
	if qe.Resource != "edges" || qe.Limit != 12 || qe.Have != 11 || qe.Want != 13 {
		t.Fatalf("QuotaError = %+v", qe)
	}
	sn := sp.Acquire()
	if sn.Version != v0 || sn.NumEdges() != 11 {
		t.Fatalf("rejected batch mutated state: version %d→%d, edges %d",
			v0, sn.Version, sn.NumEdges())
	}
	// A batch that fits exactly is accepted.
	if _, _, err := sp.Apply([]dynamic.EdgeOp{add(20, 21)}); err != nil {
		t.Fatalf("in-quota apply: %v", err)
	}
	if sp.Acquire().NumEdges() != 12 {
		t.Fatalf("edges = %d, want 12", sp.Acquire().NumEdges())
	}
}

func TestQuotaCheckIsExact(t *testing.T) {
	// The overlay must honor last-op-wins dedup and count removals as
	// headroom: remove 2, add 2, net 0 — fits a full quota exactly.
	r := New(Config{Quotas: Quotas{MaxEdges: 11, MaxVertices: 7}})
	sp, err := r.Create("g", k5()) // 11 edges, 7 vertices: at both limits
	if err != nil {
		t.Fatal(err)
	}
	ops := []dynamic.EdgeOp{
		del(10, 11), // frees one edge
		add(0, 10),  // reuses vertex 10, spends the freed edge
		add(20, 21), // would exceed...
		del(20, 21), // ...but the last op on that edge wins: net zero
	}
	if _, _, err := sp.Apply(ops); err != nil {
		t.Fatalf("net-zero batch rejected: %v", err)
	}
	if n := sp.Acquire().NumEdges(); n != 11 {
		t.Fatalf("edges = %d, want 11", n)
	}
	// One fresh vertex past MaxVertices bounces with the right resource.
	_, _, err = sp.Apply([]dynamic.EdgeOp{del(0, 1), add(0, 30)})
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Resource != "vertices" {
		t.Fatalf("vertex-quota apply: %v, want vertices QuotaError", err)
	}
}

func TestSeedQuota(t *testing.T) {
	r := New(Config{Quotas: Quotas{MaxEdges: 5}})
	if _, err := r.Create("big", k5()); err == nil {
		t.Fatal("oversized seed accepted")
	}
	if r.Len() != 0 {
		t.Fatalf("failed create left residue: Len() = %d", r.Len())
	}
	if _, err := r.Create("big", nil); err != nil {
		t.Fatalf("name not released after failed create: %v", err)
	}
}

func TestSpacesAreIsolated(t *testing.T) {
	r := New(Config{})
	a, err := r.Create("a", k5())
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Create("b", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Apply([]dynamic.EdgeOp{add(100, 101), add(101, 102), add(100, 102)}); err != nil {
		t.Fatal(err)
	}
	if n := a.Acquire().NumEdges(); n != 11 {
		t.Fatalf("mutating b changed a: %d edges", n)
	}
	if n := b.Acquire().NumEdges(); n != 3 {
		t.Fatalf("b edges = %d, want 3", n)
	}
	if _, ok := a.Acquire().KappaOf(graph.NewEdge(100, 101)); ok {
		t.Fatal("b's edge visible in a")
	}
}

func TestCloseRejectsCreates(t *testing.T) {
	r := New(Config{})
	sp, err := r.Create("g", nil)
	if err != nil {
		t.Fatal(err)
	}
	_, sub := sp.Feed().Subscribe(0)
	r.Close()
	select {
	case <-sub.Done:
	default:
		t.Fatal("Close did not terminate subscribers")
	}
	if _, err := r.Create("h", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("create after close: %v, want ErrClosed", err)
	}
	r.Close() // idempotent
}

func TestPerGraphMetricsBounded(t *testing.T) {
	reg := obs.NewRegistry()
	r := New(Config{Registry: reg, MaxGraphs: -1})
	const graphs = DefaultMaxGraphLabels + 1
	for i := 0; i < graphs; i++ {
		if _, err := r.Create(fmt.Sprintf("g%d", i), k5()); err != nil {
			t.Fatal(err)
		}
	}
	expo := string(reg.Gather())
	series := 0
	for _, line := range strings.Split(expo, "\n") {
		if strings.HasPrefix(line, "trikcore_graph_edges{") {
			series++
		}
	}
	if series != DefaultMaxGraphLabels+1 { // the admitted names, then _other
		t.Fatalf("trikcore_graph_edges has %d series, want %d:\n%s", series, DefaultMaxGraphLabels+1, expo)
	}
	if !strings.Contains(expo, `trikcore_graph_edges{graph="_other"}`) {
		t.Fatalf("overflow series missing:\n%s", expo)
	}
	if !strings.Contains(expo, fmt.Sprintf("trikcore_registry_graphs %d", graphs)) {
		t.Fatalf("registry gauge wrong:\n%s", expo)
	}
}

// TestRegistryHammer races creates, deletes, writes, reads and
// subscriptions across goroutines — run under -race it is the package's
// concurrency oracle (wired into make debugrace).
func TestRegistryHammer(t *testing.T) {
	r := New(Config{MaxGraphs: 8, Quotas: Quotas{MaxEdges: 500}})
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("g%d", w%4)
			for i := 0; i < 50; i++ {
				switch i % 5 {
				case 0:
					r.Create(name, nil)
				case 1:
					if sp, ok := r.Get(name); ok {
						base := graph.Vertex(w*1000 + i)
						sp.Apply([]dynamic.EdgeOp{
							add(base, base+1), add(base+1, base+2), add(base, base+2),
						})
					}
				case 2:
					if sp, ok := r.Get(name); ok {
						sn := sp.Acquire()
						_ = sn.NumEdges()
						sp.SetBookmark(sn)
					}
				case 3:
					if sp, ok := r.Get(name); ok {
						_, sub := sp.Feed().Subscribe(0)
						sp.Feed().Unsubscribe(sub)
					}
				case 4:
					if i%10 == 4 {
						r.Delete(name)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, name := range r.List() {
		if sp, ok := r.Get(name); ok {
			if sp.Acquire() == nil {
				t.Fatalf("space %s has no snapshot", name)
			}
		}
	}
	r.Close()
}

package dynamic

import (
	"math/rand"
	"slices"
	"testing"

	"trikcore/internal/dataset"
	"trikcore/internal/obs"
)

// ingestConflicts is the number of regions each batch of
// TestEpochAtIngestShape demotes to the conflict suffix at 2 or more
// workers. A region's read set, writes and staged values depend only on
// the frozen base it runs against, so the list is one for every worker
// count above 1. It was recorded while staged contexts still recorded
// reads on every triangle visit; recording them once per listing must
// not change a single validation decision.
var ingestConflicts = []uint64{4, 12, 13, 12, 8, 11, 8, 10, 10}

// TestEpochAtIngestShape runs the ingest workload's bulk-loader stream
// on a tenth of its graph: Epinions at 0.1 (40.6k edges), a seeded
// permutation of its edges cut into 8 blocks of 500, a first batch that
// removes the last block, then batches that each remove block j and
// re-insert block j-1. At 1, 2 and 4 workers κ must equal a from-scratch
// decomposition after every batch, and at 2 and 4 each batch must demote
// exactly the recorded number of regions. trikdebug builds check the
// substrate and the engine once per batch, so the staged read-set
// assertions run at this shape there too; they run the 2-worker arm
// only, since each arm takes about 20 s under the race detector.
func TestEpochAtIngestShape(t *testing.T) {
	d, _ := dataset.ByName("Epinions")
	g := d.GenerateAt(0.1)
	edges := g.Edges()
	perm := rand.New(rand.NewSource(26)).Perm(len(edges))
	const nb, size = 8, 500
	block := func(j int, del bool) []EdgeOp {
		j = (j + nb) % nb
		ops := make([]EdgeOp, size)
		for i := range ops {
			e := edges[perm[j*size+i]]
			ops[i] = EdgeOp{U: e.U, V: e.V, Del: del}
		}
		return ops
	}
	batches := [][]EdgeOp{block(nb-1, true)}
	for j := 0; j < nb; j++ {
		batches = append(batches, append(block(j, true), block(j-1, false)...))
	}
	arms := []int{1, 2, 4}
	if debugChecks {
		arms = []int{2}
	}
	for _, workers := range arms {
		en := NewEngine(g)
		en.Instrument(obs.NewRegistry())
		var conflicts []uint64
		for i, ops := range batches {
			before := en.mt.regionConflicts.Value()
			en.ApplyBatchParallel(ops, workers)
			if err := en.VerifyConsistency(); err != nil {
				t.Fatalf("workers %d, batch %d: %v", workers, i, err)
			}
			conflicts = append(conflicts, en.mt.regionConflicts.Value()-before)
		}
		want := ingestConflicts
		if workers == 1 {
			want = make([]uint64, len(batches)) // the serial path runs no epoch
		}
		if !slices.Equal(conflicts, want) {
			t.Errorf("workers %d: conflicted regions per batch %v, want %v", workers, conflicts, want)
		}
	}
}

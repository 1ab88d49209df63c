// Fixture for the snapshot-immutable rule from a consumer package's
// point of view: reads of published state are free, writes through it
// are findings wherever they hide in a selector/index chain.
package plot

import (
	"trikcore/internal/graph"
	"trikcore/internal/view"
)

func readOnly(sn *view.Snapshot) int {
	total := 0
	for _, k := range sn.Kappa { // ok: reads are unrestricted
		total += int(k)
	}
	return total + sn.S.NumEdges()
}

func bumpKappa(sn *view.Snapshot) {
	sn.Kappa[0]++ // want "assignment through view.Snapshot field Kappa"
}

func patchHist(sn *view.Snapshot, h []int) {
	sn.Hist = h // want "assignment through view.Snapshot field Hist"
}

func deepPatch(sn *view.Snapshot) {
	sn.S.OrigID[0] = 7 // want "assignment through graph.Static field OrigID"
}

func scribble(s *graph.Static) {
	s.OrigID = nil // want "assignment through graph.Static field OrigID"
}

func clobber(sn *view.Snapshot) {
	*sn = view.Snapshot{} // want "assignment through a view.Snapshot value"
}

func copyInto(sn *view.Snapshot, src []int32) {
	copy(sn.Kappa, src) // want "copy into through view.Snapshot field Kappa"
}

func copyOut(sn *view.Snapshot, dst []int32) {
	copy(dst, sn.Kappa) // ok: the snapshot is the source, not the destination
}

func localCopyIsFine(sn *view.Snapshot) []int32 {
	kappa := append([]int32(nil), sn.Kappa...) // ok: writes land on the copy
	kappa[0]++
	return kappa
}

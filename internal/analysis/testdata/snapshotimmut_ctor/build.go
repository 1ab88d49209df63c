// Fixture for the snapshot-immutable constructor allowlist: loaded at
// module-relative path internal/graph, where buildBlock legitimately
// fills fresh frozen storage in place before any view holds it. Any
// other function in the package is held to the same rule as a consumer.
package graph

import "trikcore/internal/graph"

func buildBlock(s *graph.Static) *graph.Static {
	s.OrigID[0] = 0     // ok: the builder fills fresh storage in place
	*s = graph.Static{} // ok
	for i := range s.OrigID {
		s.OrigID[i] = 0 // ok
	}
	return s
}

func compactInPlace(s *graph.Static) {
	s.OrigID[0] = 2 // want "assignment through graph.Static field OrigID"
}

package graph

// OutRow exposes u's out-row to the external test package.
func (s *Static) OutRow(u int32) (nbr, eid []int32) { return s.oriented().row(u) }

package graph

import "os"

// OutRow exposes u's out-row to the external test package.
func (s *Static) OutRow(u int32) (nbr, eid []int32) { return s.oriented().row(u) }

// ReadMappedView maps the TKCG v2 file at path back into a view after
// the header and CRC checks, but without OpenMapped's structural pass,
// which admits only flat-built numbering (ascending OrigID,
// lexicographic edge ids): it reads back what WriteMapped wrote for a
// view of any origin.
func ReadMappedView(path string) (*Static, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lay, err := parseMappedHeader(data)
	if err != nil {
		return nil, err
	}
	if err := checkMappedFooter(data); err != nil {
		return nil, err
	}
	return lay.flat(data).static(), nil
}

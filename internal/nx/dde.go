package nx

import "fmt"

// DDE is a Data Descriptor Element: how a CRB names a memory operand.
// A direct DDE describes one contiguous virtual range; an indirect DDE
// points at a list of direct DDEs (scatter/gather), which is how the NX
// accepts page-fragmented buffers without requiring the OS to allocate
// contiguous memory. Data still travels as Go slices in the model; the
// DDE's role is to drive translation and segment accounting exactly the
// way the silicon's DMA engine does.
type DDE struct {
	// VA/Len describe a direct element. For an indirect DDE, List is
	// non-nil and VA/Len are ignored.
	VA   uint64
	Len  int
	List []DDE
}

// DirectDDE builds a single-extent descriptor.
func DirectDDE(va uint64, n int) DDE { return DDE{VA: va, Len: n} }

// IndirectDDE builds a scatter/gather descriptor.
func IndirectDDE(elems ...DDE) DDE { return DDE{List: elems} }

// TotalLen sums the bytes described.
func (d DDE) TotalLen() int {
	if d.List == nil {
		return d.Len
	}
	total := 0
	for _, e := range d.List {
		total += e.TotalLen()
	}
	return total
}

// flatten returns the direct extents in order. Nested indirection is
// limited to one level, as on hardware; deeper nesting is rejected.
func (d DDE) flatten() ([]DDE, error) {
	if d.List == nil {
		return []DDE{d}, nil
	}
	out := make([]DDE, 0, len(d.List))
	for _, e := range d.List {
		if e.List != nil {
			return nil, fmt.Errorf("nx: DDE indirection deeper than one level")
		}
		out = append(out, e)
	}
	return out, nil
}

// GatherDDE assembles the logical source buffer for a scatter/gather
// request from per-extent fragments. Fragment i corresponds to extent i
// of the flattened DDE and must match its length — the model's stand-in
// for the DMA engine reading each extent.
func GatherDDE(d DDE, fragments [][]byte) ([]byte, error) {
	extents, err := d.flatten()
	if err != nil {
		return nil, err
	}
	if len(fragments) != len(extents) {
		return nil, fmt.Errorf("nx: %d fragments for %d extents", len(fragments), len(extents))
	}
	out := make([]byte, 0, d.TotalLen())
	for i, e := range extents {
		if len(fragments[i]) != e.Len {
			return nil, fmt.Errorf("nx: fragment %d is %d bytes, extent says %d", i, len(fragments[i]), e.Len)
		}
		out = append(out, fragments[i]...)
	}
	return out, nil
}

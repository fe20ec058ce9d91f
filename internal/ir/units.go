// Function units for incremental (delta) rewriting.
//
// A unit is a maximal original-address interval covering one or more
// functions of the partition: function extents that overlap (shared
// tails, fragments rooted at pinned mid-function labels) merge into one
// unit, so every function's instructions lie entirely inside exactly one
// unit. Units are the granularity of delta rewriting — a placement
// snapshot records each unit's instructions, and an edited input is
// admitted to the delta path only when every changed byte falls inside a
// unit, in an instruction whose edit changes nothing but its immediate.

package ir

import "zipr/internal/isa"

// FunctionExtent returns the original-address interval spanned by f's
// instructions that carry original addresses, and false when f has none
// (synthetic or empty functions). Instruction lengths are re-decoded
// under arch from the original text (based at textVA), each at its real
// address so fixed-width ISAs accept it: transforms may have widened
// or replaced the node's current Inst, and extents must describe the
// *input* bytes a unit vouches for, not the transformed shape. A node
// whose original bytes no longer decode falls back to the current
// length; such units fail the exporter's tiling walk and are dropped.
func FunctionExtent(f *Function, text []byte, textVA uint32, arch isa.Arch) (Range, bool) {
	var r Range
	found := false
	for _, n := range f.Insts {
		if n.OrigAddr == 0 {
			continue
		}
		ln := uint32(arch.InstLen(n.Inst))
		if off := n.OrigAddr - textVA; n.OrigAddr >= textVA && int(off) < len(text) {
			if in, err := arch.Decode(text[off:], n.OrigAddr); err == nil {
				ln = uint32(arch.InstLen(in))
			}
		}
		end := n.OrigAddr + ln
		if !found {
			r = Range{Start: n.OrigAddr, End: end}
			found = true
			continue
		}
		if n.OrigAddr < r.Start {
			r.Start = n.OrigAddr
		}
		if end > r.End {
			r.End = end
		}
	}
	return r, found
}

// PartitionUnits merges the function extents of p into maximal disjoint
// units, sorted by address. Overlapping extents — functions sharing a
// tail, fragments rooted at pinned labels inside another function's body
// — coalesce, so the result is a true partition of the covered bytes;
// abutting but non-overlapping functions stay separate units, keeping
// delta invalidation function-granular.
//
// Extents are measured against the original text bytes (FunctionExtent
// re-decodes lengths under p.ISA()), so a unit is an interval of the *input* image;
// the exporter's tiling walk then verifies every byte of it decodes to
// an instruction the IR still accounts for.
func PartitionUnits(p *Program) []Range {
	if p.Bin == nil {
		return nil
	}
	text := p.Bin.Text()
	if text == nil {
		return nil
	}
	arch := p.ISA()
	var extents []Range
	for _, f := range p.Functions {
		if r, ok := FunctionExtent(f, text.Data, text.VAddr, arch); ok {
			extents = append(extents, r)
		}
	}
	if len(extents) == 0 {
		return nil
	}
	// MergeRanges coalesces adjacent ranges too; units should only merge
	// on true overlap, so merge manually.
	sorted := append([]Range(nil), extents...)
	sortRanges(sorted)
	out := []Range{sorted[0]}
	for _, r := range sorted[1:] {
		last := &out[len(out)-1]
		if r.Start < last.End { // strict overlap only
			if r.End > last.End {
				last.End = r.End
			}
			continue
		}
		out = append(out, r)
	}
	return out
}

func sortRanges(rs []Range) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j].Start < rs[j-1].Start; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}

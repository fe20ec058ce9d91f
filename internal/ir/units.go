// Function units and content digests for incremental (delta) rewriting.
//
// A unit is a maximal original-address interval covering one or more
// functions of the partition: function extents that overlap (shared
// tails, fragments rooted at pinned mid-function labels) merge into one
// unit, so every function's instructions lie entirely inside exactly one
// unit. Units are the granularity of delta rewriting — a placement
// snapshot records per-unit content digests, and an edited input is
// admitted to the delta path only when every changed byte falls inside a
// unit whose new content still digests to a compatible shape.
//
// The digest canonicalizes instructions the way Config.Fingerprint
// canonicalizes configurations: it is computed from original text bytes
// alone (so both the snapshot exporter and the delta admission check,
// which has no IR, derive it identically), renders operands structurally,
// and symbolizes outgoing references — a branch to a target inside the
// unit contributes its unit-relative offset, a branch or PC-relative
// data reference leaving the unit contributes the absolute address it
// names. Two units with equal digests therefore have identical
// instruction boundaries, operations, register operands and reference
// structure.

package ir

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"zipr/internal/isa"
)

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

// Operand-class codes of the unit digest's canonical rendering.
const (
	digRaw      = 0 // plain immediate / displacement, value as-is
	digRelInner = 1 // static target inside the unit, unit-relative
	digRelOuter = 2 // static target outside the unit, absolute
)

// UnitDigest walks the unit's bytes in text (the whole original text
// segment based at textVA), decoding instruction by instruction under
// arch at each instruction's real address, and returns the unit's
// canonical content digest. Decoding must tile the interval exactly; a
// decode error or an instruction crossing u.End fails with an error
// (such units are not delta-eligible).
func UnitDigest(arch isa.Arch, text []byte, textVA uint32, u Range) ([sha256.Size]byte, error) {
	var zero [sha256.Size]byte
	if u.Start < textVA || u.End > textVA+uint32(len(text)) || u.Start >= u.End {
		return zero, fmt.Errorf("ir: unit %+v outside text", u)
	}
	h := sha256.New()
	var rec [14]byte
	addr := u.Start
	for addr < u.End {
		in, err := arch.Decode(text[addr-textVA:], addr)
		if err != nil {
			return zero, fmt.Errorf("ir: unit decode at %#x: %w", addr, err)
		}
		ln := uint32(arch.InstLen(in))
		if addr+ln > u.End {
			return zero, fmt.Errorf("ir: instruction at %#x crosses unit end %#x", addr, u.End)
		}
		class := byte(digRaw)
		val := uint32(in.Imm)
		if t, ok := arch.TargetAddr(in, addr); ok {
			if u.Contains(t) {
				class, val = digRelInner, t-u.Start
			} else {
				class, val = digRelOuter, t
			}
		}
		binary.LittleEndian.PutUint32(rec[0:], addr-u.Start)
		rec[4] = byte(in.Op)
		rec[5] = byte(in.Cc)
		rec[6] = in.Rd
		rec[7] = in.Rs
		rec[8] = class
		binary.LittleEndian.PutUint32(rec[9:], val)
		rec[13] = byte(ln)
		h.Write(rec[:])
		addr += ln
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum, nil
}

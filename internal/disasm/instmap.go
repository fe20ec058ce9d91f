package disasm

import (
	"math/bits"

	"zipr/internal/isa"
)

// InstMap is a set of instruction starts over one shared decode table:
// one bit per text offset, with the instruction itself read from the
// table. Every disassembler's view of the same text is one such set, so
// a view costs an eighth of a byte per text byte instead of a copy of
// each instruction, lookups are O(1) without hashing, and iteration runs
// in ascending address order — every consumer is deterministic without
// collect-and-sort.
type InstMap struct {
	tab   *isa.DecodeTable
	set   isa.Bitset
	count int
}

// newInstMap returns an empty set over tab.
func newInstMap(tab *isa.DecodeTable) *InstMap {
	return &InstMap{tab: tab, set: isa.NewBitset(len(tab.Insts))}
}

// Len returns the number of instructions recorded.
func (m *InstMap) Len() int {
	if m == nil {
		return 0
	}
	return m.count
}

// off returns addr's text offset and whether the table decodes there.
func (m *InstMap) off(addr uint32) (int, bool) {
	off := addr - m.tab.Base
	return int(off), off < uint32(len(m.tab.Insts)) && m.tab.Insts[off].Op != isa.OpInvalid
}

// Put records the table's instruction at addr. Addresses outside the
// table, or where it holds no decode, are ignored.
func (m *InstMap) Put(addr uint32) {
	if off, ok := m.off(addr); ok && !m.set.Has(off) {
		m.set.Set(off)
		m.count++
	}
}

// Delete removes the instruction starting at addr, if one was
// recorded. The weighted arbitration pass uses it to drop demoted
// candidates from the ambiguous set.
func (m *InstMap) Delete(addr uint32) {
	if off, ok := m.off(addr); ok && m.set.Has(off) {
		m.set.Clear(off)
		m.count--
	}
}

// Get returns the instruction starting at addr, if one was recorded.
func (m *InstMap) Get(addr uint32) (isa.Inst, bool) {
	if m == nil {
		return isa.Inst{}, false
	}
	if off, ok := m.off(addr); ok && m.set.Has(off) {
		return m.tab.Insts[off], true
	}
	return isa.Inst{}, false
}

// Has reports whether an instruction starts at addr.
func (m *InstMap) Has(addr uint32) bool {
	_, ok := m.Get(addr)
	return ok
}

// All calls yield for every recorded instruction in ascending address
// order, stopping early if yield returns false. The ordered walk is what
// makes downstream passes (IR node creation, ambiguous-region pinning,
// warning emission) deterministic by construction.
func (m *InstMap) All(yield func(addr uint32, in isa.Inst) bool) {
	if m == nil {
		return
	}
	for w, word := range m.set {
		for word != 0 {
			off := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if !yield(m.tab.Base+uint32(off), m.tab.Insts[off]) {
				return
			}
		}
	}
}

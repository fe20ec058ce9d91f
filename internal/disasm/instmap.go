package disasm

import "zipr/internal/isa"

// InstMap is a set of instruction starts over one shared decode table:
// one bit per candidate of the table, by rank, with the instruction
// itself read from the table. Every disassembler's view of the same text
// is one such set, so a view costs an eighth of a byte per candidate
// instead of a copy of each instruction, lookups are O(1) without
// hashing, and iteration runs in ascending address order — every
// consumer is deterministic without collect-and-sort.
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

// rank returns addr's candidate rank and whether the table decodes
// there.
func (m *InstMap) rank(addr uint32) (int, bool) {
	return m.tab.Rank(int(addr - m.tab.Base))
}

// add records the table's candidate of rank r.
func (m *InstMap) add(r int) {
	if !m.set.Has(r) {
		m.set.Set(r)
		m.count++
	}
}

// Delete removes the instruction starting at addr, if one was
// recorded. The weighted arbitration pass uses it to drop demoted
// candidates from the ambiguous set.
func (m *InstMap) Delete(addr uint32) {
	if r, ok := m.rank(addr); ok && m.set.Has(r) {
		m.set.Clear(r)
		m.count--
	}
}

// Get returns the instruction starting at addr, if one was recorded.
func (m *InstMap) Get(addr uint32) (isa.Inst, bool) {
	if m == nil {
		return isa.Inst{}, false
	}
	if r, ok := m.rank(addr); ok && m.set.Has(r) {
		return m.tab.Insts[r], true
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
	m.tab.Each(m.set, func(off, r int) bool {
		return yield(m.tab.Base+uint32(off), m.tab.Insts[r])
	})
}

package isa

// DecodeTable is the decode of every byte offset of one text range under
// one Arch. Disassembly makes it once per binary and hands it, read-only,
// to the linear sweep, the recursive traversal and inference, so no
// offset is decoded twice. Insts[off] is what Arch.Decode returns for the
// bytes at off — the zero Inst (OpInvalid) where it returns an error —
// and Lens[off] is that instruction's encoded length (0 where there is no
// decode). Fixed-width ISAs reject every misaligned address, so those
// slots stay empty without a decode attempt.
type DecodeTable struct {
	Arch  Arch
	Base  uint32
	Text  []byte
	Insts []Inst
	Lens  []uint8
}

// NewDecodeTable allocates an empty table for text at address base under
// arch (nil means the default ISA); Fill decodes into it.
func NewDecodeTable(arch Arch, text []byte, base uint32) *DecodeTable {
	return &DecodeTable{
		Arch:  Of(arch),
		Base:  base,
		Text:  text,
		Insts: make([]Inst, len(text)),
		Lens:  make([]uint8, len(text)),
	}
}

// DecodeText returns the filled table for text at base under arch.
func DecodeText(arch Arch, text []byte, base uint32) *DecodeTable {
	t := NewDecodeTable(arch, text, base)
	t.Fill(0, len(text))
	return t
}

// Fill decodes the offsets in [lo, hi). Each offset writes only its own
// slots, so disjoint ranges may be filled concurrently.
func (t *DecodeTable) Fill(lo, hi int) {
	arch, align := t.Arch, t.Arch.Align()
	off := lo + int((align-(t.Base+uint32(lo))%align)%align)
	for ; off < hi; off += int(align) {
		in, err := arch.Decode(t.Text[off:], t.Base+uint32(off))
		if err != nil {
			continue
		}
		t.Insts[off], t.Lens[off] = in, uint8(arch.InstLen(in))
	}
}

// Bitset is a set of text offsets, one bit per offset: the form every
// per-offset flag of the disassemblers takes, at a sixty-fourth of the
// memory of a bool slice.
type Bitset []uint64

// NewBitset returns an empty set with room for offsets 0..n-1.
func NewBitset(n int) Bitset { return make(Bitset, (n+63)/64) }

// Has reports whether offset i is in the set.
func (s Bitset) Has(i int) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }

// Set adds offset i.
func (s Bitset) Set(i int) { s[i>>6] |= 1 << (uint(i) & 63) }

// Clear removes offset i.
func (s Bitset) Clear(i int) { s[i>>6] &^= 1 << (uint(i) & 63) }

// SetRange adds the offsets in [lo, hi).
func (s Bitset) SetRange(lo, hi int) {
	for i := lo; i < hi; i++ {
		s.Set(i)
	}
}

package isa

import "math/bits"

// DecodeTable is the candidate relation of one text range under one
// Arch: the set of byte offsets at which Arch.Decode succeeds (the
// candidate instruction starts) and, stored densely by rank, each
// candidate's decoded instruction and length. A candidate's rank is the
// number of candidates below it, so Insts[r] and Lens[r] describe the
// r-th candidate in ascending offset order, and every per-candidate
// array of a consumer is indexed the same way. Rank is O(1): a popcount
// prefix per 64-offset word of the set. Fixed-width ISAs reject every
// misaligned address, so only aligned offsets can be candidates and the
// dense storage holds one slot per alignment unit at most.
//
// Disassembly makes one table per binary and hands it, read-only, to the
// linear sweep, the recursive traversal and inference, so no offset is
// decoded twice.
type DecodeTable struct {
	Arch Arch
	Base uint32
	Text []byte
	// Insts[r] is the candidate of rank r as Arch.Decode returns it, and
	// Lens[r] its encoded length.
	Insts []Inst
	Lens  []uint8

	cand   Bitset  // candidate offsets
	prefix []int32 // prefix[w]: candidates in cand[:w]
}

// NewDecodeTable allocates an empty table for text at address base under
// arch (nil means the default ISA). Filling it takes three steps: Fill
// marks the candidates, Index ranks them, Store decodes them into their
// rank slots.
func NewDecodeTable(arch Arch, text []byte, base uint32) *DecodeTable {
	return &DecodeTable{Arch: Of(arch), Base: base, Text: text, cand: NewBitset(len(text))}
}

// DecodeText returns the filled table for text at base under arch.
func DecodeText(arch Arch, text []byte, base uint32) *DecodeTable {
	t := NewDecodeTable(arch, text, base)
	t.Fill(0, len(text))
	t.Index()
	t.Store(0, len(text))
	return t
}

// Fill marks the candidates in [lo, hi). A fill writes only the words of
// the candidate set its range covers, so fills of disjoint ranges split
// on multiples of 64 may run concurrently; the set they leave is the one
// a single Fill(0, len(Text)) leaves.
func (t *DecodeTable) Fill(lo, hi int) {
	arch, align := t.Arch, t.Arch.Align()
	off := lo + int((align-(t.Base+uint32(lo))%align)%align)
	for ; off < hi; off += int(align) {
		if _, err := arch.Decode(t.Text[off:], t.Base+uint32(off)); err == nil {
			t.cand.Set(off)
		}
	}
}

// Index builds the rank prefix over the candidates every Fill marked and
// allocates the dense arrays at their exact size.
func (t *DecodeTable) Index() {
	t.prefix = make([]int32, len(t.cand)+1)
	for w, word := range t.cand {
		t.prefix[w+1] = t.prefix[w] + int32(bits.OnesCount64(word))
	}
	k := int(t.prefix[len(t.cand)])
	t.Insts, t.Lens = make([]Inst, k), make([]uint8, k)
}

// Store decodes the candidates in [lo, hi) into their rank slots; it
// follows Index. Each candidate writes only its own slots, so stores of
// disjoint ranges may run concurrently.
func (t *DecodeTable) Store(lo, hi int) {
	arch := t.Arch
	r, _ := t.Rank(lo)
	for off := t.Next(lo); off < hi; off = t.Next(off + 1) {
		in, _ := arch.Decode(t.Text[off:], t.Base+uint32(off))
		t.Insts[r], t.Lens[r] = in, uint8(arch.InstLen(in))
		r++
	}
}

// Rank returns the number of candidates below offset off and whether off
// is itself one. An offset outside the text is not a candidate.
func (t *DecodeTable) Rank(off int) (int, bool) {
	if uint(off) >= uint(len(t.Text)) {
		if off < 0 {
			return 0, false
		}
		return len(t.Insts), false
	}
	w, bit := off>>6, uint64(1)<<(uint(off)&63)
	word := t.cand[w]
	return int(t.prefix[w]) + bits.OnesCount64(word&(bit-1)), word&bit != 0
}

// Next returns the first candidate offset at or above off, or
// len(Text) when there is none. Walking the candidates in order is
//
//	for off, r := t.Next(0), 0; off < len(t.Text); off, r = t.Next(off+1), r+1
func (t *DecodeTable) Next(off int) int {
	n := len(t.Text)
	if off >= n {
		return n
	}
	w := off >> 6
	word := t.cand[w] &^ (1<<(uint(off)&63) - 1)
	for word == 0 {
		if w++; w == len(t.cand) {
			return n
		}
		word = t.cand[w]
	}
	return w<<6 + bits.TrailingZeros64(word)
}

// Each calls yield with the offset and rank of every candidate whose
// rank is in ranks (a set over 0..len(Insts)-1), in ascending order,
// stopping early if yield returns false. It walks the candidate set
// alongside, so a whole walk costs O(len(Text)/64 + len(Insts)).
func (t *DecodeTable) Each(ranks Bitset, yield func(off, r int) bool) {
	// word holds the candidates of cand[w] not yet passed, the lowest of
	// rank at.
	w, word, at := -1, uint64(0), 0
	for rw, rword := range ranks {
		for ; rword != 0; rword &= rword - 1 {
			r := rw<<6 + bits.TrailingZeros64(rword)
			for int(t.prefix[w+1]) <= r {
				w++
				word, at = t.cand[w], int(t.prefix[w])
			}
			for ; at < r; at++ {
				word &= word - 1
			}
			if !yield(w<<6+bits.TrailingZeros64(word), r) {
				return
			}
		}
	}
}

// Bitset is a set of small non-negative integers — text offsets or
// candidate ranks — one bit each: the form every per-offset and
// per-candidate flag of the disassemblers takes, at a sixty-fourth of
// the memory of a bool slice.
type Bitset []uint64

// NewBitset returns an empty set with room for 0..n-1.
func NewBitset(n int) Bitset { return make(Bitset, (n+63)/64) }

// Has reports whether i is in the set.
func (s Bitset) Has(i int) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }

// Set adds i.
func (s Bitset) Set(i int) { s[i>>6] |= 1 << (uint(i) & 63) }

// Clear removes i.
func (s Bitset) Clear(i int) { s[i>>6] &^= 1 << (uint(i) & 63) }

// SetRange adds the members of [lo, hi).
func (s Bitset) SetRange(lo, hi int) {
	for i := lo; i < hi; i++ {
		s.Set(i)
	}
}

package isa

import "math/bits"

// DecodeTable is the candidate relation of one text range under one
// Arch: the set of byte offsets at which Arch.Decode succeeds (the
// candidate instruction starts) and, stored densely by rank, each
// candidate's decoded instruction and length. A candidate's rank is the
// number of candidates below it, so Insts[r] and Lens[r] describe the
// r-th candidate in ascending offset order, and every per-candidate
// array of a consumer is indexed the same way. The candidates are a
// RankSet, so Rank, Next and Each are O(1) per step. Fixed-width ISAs
// reject every misaligned address, so only aligned offsets can be
// candidates and the dense storage holds one slot per alignment unit at
// most.
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
	// RankSet holds the candidate offsets.
	RankSet
}

// NewDecodeTable allocates an empty table for text at address base under
// arch (nil means the default ISA). Filling it takes three steps: Fill
// marks the candidates, Index ranks them, Store decodes them into their
// rank slots.
func NewDecodeTable(arch Arch, text []byte, base uint32) *DecodeTable {
	return &DecodeTable{Arch: Of(arch), Base: base, Text: text, RankSet: NewRankSet(len(text))}
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
			t.Add(off)
		}
	}
}

// Index ranks the candidates every Fill marked and allocates the dense
// arrays at their exact size.
func (t *DecodeTable) Index() {
	k := t.RankSet.Index()
	t.Insts, t.Lens = make([]Inst, k), make([]uint8, k)
}

// Store decodes the candidates in [lo, hi) into their rank slots; it
// follows Index. Each candidate writes only its own slots, so stores of
// disjoint ranges may run concurrently.
func (t *DecodeTable) Store(lo, hi int) {
	arch := t.Arch
	for off, r := t.Next(lo); off < hi; off, r = t.Next(off + 1) {
		in, _ := arch.Decode(t.Text[off:], t.Base+uint32(off))
		t.Insts[r], t.Lens[r] = in, uint8(arch.InstLen(in))
	}
}

// RankSet is a set of offsets in [0, n) — the candidate instruction
// starts of a text, or the address slots of an IR's decoded nodes —
// with an O(1) rank: the number of members below an offset, read from a
// popcount prefix per 64-offset word. A consumer stores one value per
// member densely by rank, so a per-member array costs what the members
// do, not what the offsets do, and the set itself a bit per offset plus
// half a bit of prefix.
//
// A set is built one of two ways. In bulk, Add marks members (adds to
// disjoint words may run concurrently) and Index ranks them. In
// ascending order, Append adds a member above every other one and keeps
// the ranks current without an Index. The zero value is an empty set
// over no offsets.
type RankSet struct {
	n      int
	bits   Bitset
	prefix []int32 // prefix[w]: members in bits[:w], for w <= top
	top    int     // words ranked so far; every member lies in bits[:top]
}

// NewRankSet returns an empty set over [0, n).
func NewRankSet(n int) RankSet {
	b := NewBitset(n)
	return RankSet{n: n, bits: b, prefix: make([]int32, len(b)+1)}
}

// Add marks i, for a bulk build; Index ranks the marks.
func (s *RankSet) Add(i int) { s.bits.Set(i) }

// Index ranks every member Add marked and returns their number.
func (s *RankSet) Index() int {
	for w, word := range s.bits {
		s.prefix[w+1] = s.prefix[w] + int32(bits.OnesCount64(word))
	}
	s.top = len(s.bits)
	return s.Len()
}

// Append adds i, whose rank is then the previous Len(). It reports
// false, adding nothing, when i lies outside [0, n) or not above every
// member.
func (s *RankSet) Append(i int) bool {
	w := i >> 6
	if uint(i) >= uint(s.n) || w < s.top-1 || w == s.top-1 && s.bits[w]>>(uint(i)&63) != 0 {
		return false
	}
	for ; s.top <= w; s.top++ {
		s.prefix[s.top+1] = s.prefix[s.top]
	}
	s.bits.Set(i)
	s.prefix[s.top]++
	return true
}

// Len returns the number of ranked members.
func (s *RankSet) Len() int {
	if s.prefix == nil {
		return 0
	}
	return int(s.prefix[s.top])
}

// Rank returns the number of members below i and whether i is itself
// one. An offset outside [0, n) is not a member.
func (s *RankSet) Rank(i int) (int, bool) {
	w := i >> 6
	if uint(w) >= uint(s.top) {
		if i < 0 {
			return 0, false
		}
		return s.Len(), false
	}
	bit := uint64(1) << (uint(i) & 63)
	word := s.bits[w]
	return int(s.prefix[w]) + bits.OnesCount64(word&(bit-1)), word&bit != 0
}

// Next returns the first member at or above i with its rank, or n and
// Len() when there is none. Walking the members in order is
//
//	for i, r := s.Next(0); i < n; i, r = s.Next(i + 1)
func (s *RankSet) Next(i int) (int, int) {
	if i >= s.n {
		return s.n, s.Len()
	}
	w := i >> 6
	word := s.bits[w] &^ (1<<(uint(i)&63) - 1)
	for word == 0 {
		if w++; w == len(s.bits) {
			return s.n, s.Len()
		}
		word = s.bits[w]
	}
	low := word & -word
	return w<<6 + bits.TrailingZeros64(word), int(s.prefix[w]) + bits.OnesCount64(s.bits[w]&(low-1))
}

// Each calls yield with the offset and rank of every member whose rank
// is in ranks (a set over 0..Len()-1), in ascending order, stopping
// early if yield returns false. It walks the members alongside, so a
// whole walk costs O(n/64 + Len()).
func (s *RankSet) Each(ranks Bitset, yield func(i, r int) bool) {
	// word holds the members of bits[w] not yet passed, the lowest of
	// rank at.
	w, word, at := -1, uint64(0), 0
	for rw, rword := range ranks {
		for ; rword != 0; rword &= rword - 1 {
			r := rw<<6 + bits.TrailingZeros64(rword)
			for int(s.prefix[w+1]) <= r {
				w++
				word, at = s.bits[w], int(s.prefix[w])
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

// Bitset is a set of small non-negative integers — text offsets,
// candidate ranks or node IDs — one bit each: the form every per-offset
// and per-candidate flag of the disassemblers takes, at a sixty-fourth
// of the memory of a bool slice.
type Bitset []uint64

// NewBitset returns an empty set with room for 0..n-1.
func NewBitset(n int) Bitset { return make(Bitset, (n+63)/64) }

// Has reports whether i is in the set.
func (s Bitset) Has(i int) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }

// Set adds i.
func (s Bitset) Set(i int) { s[i>>6] |= 1 << (uint(i) & 63) }

// Clear removes i.
func (s Bitset) Clear(i int) { s[i>>6] &^= 1 << (uint(i) & 63) }

// SetRange adds the members of [lo, hi), a word at a time.
func (s Bitset) SetRange(lo, hi int) {
	if lo >= hi {
		return
	}
	lw, hw := lo>>6, (hi-1)>>6
	lm, hm := ^uint64(0)<<(uint(lo)&63), ^uint64(0)>>(63-uint(hi-1)&63)
	if lw == hw {
		s[lw] |= lm & hm
		return
	}
	s[lw] |= lm
	for w := lw + 1; w < hw; w++ {
		s[w] = ^uint64(0)
	}
	s[hw] |= hm
}

// Count returns the number of members.
func (s Bitset) Count() int {
	c := 0
	for _, w := range s {
		c += bits.OnesCount64(w)
	}
	return c
}

// NextSet returns the first member at or above i, or n when none lies
// below n. It reads a word at a time.
func (s Bitset) NextSet(i, n int) int { return s.next(i, n, 0) }

// NextClear returns the first non-member at or above i, or n when every
// offset of [i, n) is a member. It reads a word at a time.
func (s Bitset) NextClear(i, n int) int { return s.next(i, n, ^uint64(0)) }

// next is NextSet over the set's bits xor flip.
func (s Bitset) next(i, n int, flip uint64) int {
	if i >= n {
		return n
	}
	w := i >> 6
	word := (s[w] ^ flip) &^ (1<<(uint(i)&63) - 1)
	for word == 0 {
		if w++; w<<6 >= n {
			return n
		}
		word = s[w] ^ flip
	}
	return min(w<<6+bits.TrailingZeros64(word), n)
}

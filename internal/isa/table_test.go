package isa

import (
	"math/rand"
	"reflect"
	"testing"
)

// checkTable compares tab against a direct Arch.Decode at every offset:
// an offset is a candidate exactly where the decode succeeds, its rank
// is the number of candidates below it, and the dense slot at that rank
// holds the decoded instruction and its length. Next and Each are
// checked against the same walk.
func checkTable(t *testing.T, arch Arch, text []byte, base uint32, tab *DecodeTable) (decoded int) {
	t.Helper()
	var offs []int // the candidates, ascending
	for off := range text {
		in, err := arch.Decode(text[off:], base+uint32(off))
		r, ok := tab.Rank(off)
		switch {
		case r != len(offs):
			t.Fatalf("%s base %#x len %d off %d: rank %d, want %d", arch.Name(), base, len(text), off, r, len(offs))
		case ok != (err == nil):
			t.Fatalf("%s base %#x len %d off %d: candidate %v, decode error %v", arch.Name(), base, len(text), off, ok, err)
		case ok && (tab.Insts[r] != in || int(tab.Lens[r]) != arch.InstLen(in) || tab.Lens[r] == 0):
			t.Fatalf("%s base %#x off %d: decode %v len %d, rank %d holds %v len %d",
				arch.Name(), base, off, in, arch.InstLen(in), r, tab.Insts[r], tab.Lens[r])
		}
		if ok {
			offs = append(offs, off)
		}
	}
	if len(tab.Insts) != len(offs) || len(tab.Lens) != len(offs) {
		t.Fatalf("%s: %d/%d dense slots for %d candidates", arch.Name(), len(tab.Insts), len(tab.Lens), len(offs))
	}
	for _, off := range []int{-1, len(text), len(text) + 64} {
		if r, ok := tab.Rank(off); ok || (off >= 0 && r != len(offs)) {
			t.Fatalf("%s: offset %d outside the text ranks %d, %v", arch.Name(), off, r, ok)
		}
	}
	var walked []int
	for off, r := tab.Next(0), 0; off < len(text); off, r = tab.Next(off+1), r+1 {
		if got, _ := tab.Rank(off); got != r {
			t.Fatalf("%s: Next walk reaches rank %d at offset %d, Rank says %d", arch.Name(), r, off, got)
		}
		walked = append(walked, off)
	}
	if !reflect.DeepEqual(walked, offs) {
		t.Fatalf("%s: Next walks %v, want %v", arch.Name(), walked, offs)
	}
	// Each over every other rank returns those ranks' offsets.
	every := NewBitset(len(offs))
	var want, got []int
	for r := 0; r < len(offs); r += 2 {
		every.Set(r)
		want = append(want, offs[r], r)
	}
	tab.Each(every, func(off, r int) bool {
		got = append(got, off, r)
		return true
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Each yields %v, want %v", arch.Name(), got, want)
	}
	return len(offs)
}

// mixedText returns n bytes of encoded random instructions interleaved
// with random junk, so the table sees valid decodes, rejections and
// misaligned starts.
func mixedText(r *rand.Rand, arch Arch, n int) []byte {
	var text []byte
	for len(text) < n {
		if r.Intn(4) == 0 {
			text = append(text, byte(r.Intn(256)))
			continue
		}
		if b, err := arch.Encode(randomInst(r)); err == nil {
			text = append(text, b...)
		}
	}
	return text[:n]
}

// TestDecodeTableMatchesDecode is the property test of the candidate
// relation: on both ISAs, for random and instruction-shaped bytes, for
// text lengths on both sides of a word boundary and at every ZVM-64
// base alignment, Rank counts the candidates below each offset, the
// candidates are exactly the offsets Arch.Decode accepts, and the dense
// slot at each rank holds that decode. A table filled and stored in two
// pieces equals the one-pass table at every split point of the short
// texts (and at random ones of the long texts), and so does one filled
// and stored by two concurrent halves split on a word boundary.
func TestDecodeTableMatchesDecode(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	for _, arch := range []Arch{ZVM32, ZVM64} {
		random := make([]byte, 4096)
		r.Read(random)
		texts := [][]byte{random, mixedText(r, arch, 4096)}
		for _, n := range []int{0, 1, 63, 64, 65, 130} {
			texts = append(texts, mixedText(r, arch, n))
		}
		for n := 2; n <= arch.MaxLen()+1; n++ {
			texts = append(texts, mixedText(r, arch, n)) // whole text shorter than MaxLen
		}
		decoded := 0
		for _, text := range texts {
			for _, base := range []uint32{0x100000, 0x100001, 0x100002, 0x100003} {
				serial := DecodeText(arch, text, base)
				decoded += checkTable(t, arch, text, base, serial)
				cuts := make([]int, 0, len(text)+1)
				if len(text) <= 130 {
					for cut := 0; cut <= len(text); cut++ {
						cuts = append(cuts, cut)
					}
				} else {
					for i := 0; i < 8; i++ {
						cuts = append(cuts, r.Intn(len(text)+1))
					}
				}
				for _, cut := range cuts {
					split := NewDecodeTable(arch, text, base)
					split.Fill(cut, len(text))
					split.Fill(0, cut)
					split.Index()
					split.Store(cut, len(text))
					split.Store(0, cut)
					if !reflect.DeepEqual(split, serial) {
						checkTable(t, arch, text, base, split)
						t.Fatalf("%s base %#x len %d: fill split at %d differs from the serial fill", arch.Name(), base, len(text), cut)
					}
				}
				half := len(text) / 2 &^ 63
				par := NewDecodeTable(arch, text, base)
				inHalves(len(text), half, par.Fill)
				par.Index()
				inHalves(len(text), half, par.Store)
				if !reflect.DeepEqual(par, serial) {
					t.Fatalf("%s base %#x len %d: concurrent halves split at %d differ from the serial fill", arch.Name(), base, len(text), half)
				}
			}
		}
		if decoded == 0 {
			t.Fatalf("%s: no offset decoded; the check proved nothing", arch.Name())
		}
	}
}

// inHalves runs fn over [0, half) and, on a second goroutine,
// [half, n).
func inHalves(n, half int, fn func(lo, hi int)) {
	done := make(chan struct{})
	go func() {
		fn(half, n)
		close(done)
	}()
	fn(0, half)
	<-done
}

// TestDecodeTableMisalignedZVM64 pins the fixed-width rule: at a base
// that is not word-aligned, ZVM-64 decodes only at the offsets that
// bring the address back to alignment — here, where the instruction
// stream after a two-byte prefix starts — so the dense storage holds at
// most one slot per four bytes.
func TestDecodeTableMisalignedZVM64(t *testing.T) {
	r := rand.New(rand.NewSource(64))
	text := []byte{0xAA, 0xBB}
	for len(text) < 256 {
		if b, err := ZVM64.Encode(randomInst(r)); err == nil {
			text = append(text, b...)
		}
	}
	tab := DecodeText(ZVM64, text, 0x100002)
	if _, ok := tab.Rank(2); !ok {
		t.Fatal("the aligned stream start does not decode")
	}
	for off := range text {
		if _, ok := tab.Rank(off); ok && (0x100002+off)%4 != 0 {
			t.Fatalf("misaligned offset %d is a candidate", off)
		}
	}
	if max := (len(text) + 3) / 4; len(tab.Insts) > max {
		t.Fatalf("%d dense slots for %d bytes, want at most %d", len(tab.Insts), len(text), max)
	}
}

package isa

import (
	"math/rand"
	"reflect"
	"slices"
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
	for off, r := tab.Next(0); off < len(text); off, r = tab.Next(off + 1) {
		if got, _ := tab.Rank(off); got != r || r != len(walked) {
			t.Fatalf("%s: Next walk reaches offset %d at rank %d, step %d; Rank says %d", arch.Name(), off, r, len(walked), got)
		}
		walked = append(walked, off)
	}
	if off, r := tab.Next(len(text)); off != len(text) || r != len(offs) {
		t.Fatalf("%s: Next past the text = %d, %d, want %d, %d", arch.Name(), off, r, len(text), len(offs))
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

// decodeText returns the filled table for text at base under arch.
func decodeText(arch Arch, text []byte, base uint32) *DecodeTable {
	t := NewDecodeTable(arch, text, base)
	t.Fill(0, len(text))
	t.Index()
	t.Store(0, len(text))
	return t
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
				serial := decodeText(arch, text, base)
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
	tab := decodeText(ZVM64, text, 0x100002)
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

// TestRankSetAppendMatchesIndex checks the two ways of building a
// RankSet against a reference count: after every ascending Append, Rank
// is exact at every offset, above the highest member too, and Next and
// Each walk the members so far; the finished set equals the one Add and
// Index build from the same members. Append refuses an offset outside
// the set's range or not above every member and leaves the set as it
// was.
func TestRankSetAppendMatchesIndex(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	for _, n := range []int{0, 1, 63, 64, 65, 200, 1000} {
		for _, density := range []int{1, 3, 40} {
			var members []int
			for i := 0; i < n; i++ {
				if r.Intn(density) == 0 {
					members = append(members, i)
				}
			}
			app, bulk := NewRankSet(n), NewRankSet(n)
			check := func(set *RankSet, ms []int) {
				t.Helper()
				below := 0
				for i := -1; i <= n+64; i++ {
					isMember := below < len(ms) && ms[below] == i
					if got, ok := set.Rank(i); ok != isMember || i >= 0 && got != below {
						t.Fatalf("n %d, %d members: Rank(%d) = %d, %v, want %d, %v", n, len(ms), i, got, ok, below, isMember)
					}
					if isMember {
						below++
					}
				}
				var walked []int
				for i, k := set.Next(0); i < n; i, k = set.Next(i + 1) {
					if k != len(walked) {
						t.Fatalf("n %d: Next reaches %d at rank %d, want %d", n, i, k, len(walked))
					}
					walked = append(walked, i)
				}
				if !slices.Equal(walked, ms) {
					t.Fatalf("n %d: Next walks %v, want %v", n, walked, ms)
				}
				all := NewBitset(len(ms))
				all.SetRange(0, len(ms))
				walked = walked[:0]
				set.Each(all, func(i, k int) bool {
					walked = append(walked, i)
					return true
				})
				if !slices.Equal(walked, ms) || set.Len() != len(ms) {
					t.Fatalf("n %d: Each walks %v (Len %d), want %v", n, walked, set.Len(), ms)
				}
			}
			check(&app, nil)
			for k, i := range members {
				if !app.Append(i) {
					t.Fatalf("n %d: Append(%d) refused", n, i)
				}
				if r, ok := app.Rank(i); !ok || r != k {
					t.Fatalf("n %d: Append(%d) ranks it %d, %v, want %d, true", n, i, r, ok, k)
				}
				for _, bad := range []int{i, i - 1, -1, n} {
					if app.Append(bad) {
						t.Fatalf("n %d: Append(%d) after %d accepted", n, bad, i)
					}
				}
				if k%7 == 0 || k == len(members)-1 {
					check(&app, members[:k+1])
				}
				bulk.Add(i)
			}
			bulk.Index()
			check(&bulk, members)
			if len(members) > 0 && !reflect.DeepEqual(app.bits, bulk.bits) {
				t.Fatalf("n %d: appended and indexed sets differ", n)
			}
		}
	}
	var zero RankSet
	if r, ok := zero.Rank(5); r != 0 || ok || zero.Len() != 0 {
		t.Fatal("the zero RankSet is not empty")
	}
	if i, k := zero.Next(0); i != 0 || k != 0 {
		t.Fatalf("zero RankSet: Next(0) = %d, %d", i, k)
	}
}

// TestBitsetNextSetClear checks the word-at-a-time scans against a
// bit-at-a-time reference, from every start, on sets whose length is
// and is not a multiple of 64.
func TestBitsetNextSetClear(t *testing.T) {
	r := rand.New(rand.NewSource(64))
	for _, n := range []int{0, 1, 63, 64, 65, 190, 256} {
		for _, density := range []int{1, 2, 30} {
			s := NewBitset(n)
			for i := 0; i < n; i++ {
				if r.Intn(density) != 0 {
					s.Set(i)
				}
			}
			ref := func(i int, want bool) int {
				for ; i < n; i++ {
					if s.Has(i) == want {
						return i
					}
				}
				return n
			}
			for i := 0; i <= n+1; i++ {
				if got, want := s.NextSet(i, n), ref(i, true); got != want {
					t.Fatalf("n %d: NextSet(%d) = %d, want %d", n, i, got, want)
				}
				if got, want := s.NextClear(i, n), ref(i, false); got != want {
					t.Fatalf("n %d: NextClear(%d) = %d, want %d", n, i, got, want)
				}
			}
			c := 0
			for i := 0; i < n; i++ {
				if s.Has(i) {
					c++
				}
			}
			if s.Count() != c {
				t.Fatalf("n %d: Count = %d, want %d", n, s.Count(), c)
			}
		}
	}
}

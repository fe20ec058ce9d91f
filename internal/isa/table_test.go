package isa

import (
	"math/rand"
	"testing"
)

// checkTable compares tab against a direct Arch.Decode at every offset:
// the same instruction and its length where the decode succeeds, an
// empty slot where it fails.
func checkTable(t *testing.T, arch Arch, text []byte, base uint32, tab *DecodeTable) (decoded int) {
	t.Helper()
	if len(tab.Insts) != len(text) || len(tab.Lens) != len(text) {
		t.Fatalf("%s: table has %d/%d slots for %d bytes", arch.Name(), len(tab.Insts), len(tab.Lens), len(text))
	}
	for off := range text {
		in, err := arch.Decode(text[off:], base+uint32(off))
		got, n := tab.Insts[off], int(tab.Lens[off])
		switch {
		case err != nil && (got != Inst{} || n != 0):
			t.Fatalf("%s base %#x off %d: decode fails (%v), table holds %v len %d", arch.Name(), base, off, err, got, n)
		case err == nil && (got != in || n != arch.InstLen(in) || n == 0):
			t.Fatalf("%s base %#x off %d: decode %v len %d, table holds %v len %d", arch.Name(), base, off, in, arch.InstLen(in), got, n)
		case err == nil:
			decoded++
		}
	}
	return decoded
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

// TestDecodeTableMatchesDecode is the differential check of the shared
// decode table: on both ISAs, for random and instruction-shaped bytes,
// for texts shorter than one instruction and at misaligned ZVM-64
// bases, every slot equals what Arch.Decode returns at that offset, and
// a table filled in two pieces split anywhere equals the one-pass table.
func TestDecodeTableMatchesDecode(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	for _, arch := range []Arch{ZVM32, ZVM64} {
		random := make([]byte, 4096)
		r.Read(random)
		texts := [][]byte{random, mixedText(r, arch, 4096)}
		for n := 0; n <= arch.MaxLen()+1; n++ {
			texts = append(texts, mixedText(r, arch, n)) // whole text shorter than MaxLen
		}
		decoded := 0
		for _, text := range texts {
			for _, base := range []uint32{0x100000, 0x100001, 0x100002, 0x100003} {
				tab := DecodeText(arch, text, base)
				decoded += checkTable(t, arch, text, base, tab)
				split := NewDecodeTable(arch, text, base)
				cut := 0
				if len(text) > 0 {
					cut = r.Intn(len(text) + 1)
				}
				split.Fill(cut, len(text))
				split.Fill(0, cut)
				checkTable(t, arch, text, base, split)
			}
		}
		if decoded == 0 {
			t.Fatalf("%s: no offset decoded; the check proved nothing", arch.Name())
		}
	}
}

// TestDecodeTableMisalignedZVM64 pins the fixed-width rule: at a base
// that is not word-aligned, ZVM-64 decodes only at the offsets that
// bring the address back to alignment — here, where the instruction
// stream after a two-byte prefix starts.
func TestDecodeTableMisalignedZVM64(t *testing.T) {
	r := rand.New(rand.NewSource(64))
	text := []byte{0xAA, 0xBB}
	for len(text) < 256 {
		if b, err := ZVM64.Encode(randomInst(r)); err == nil {
			text = append(text, b...)
		}
	}
	tab := DecodeText(ZVM64, text, 0x100002)
	if tab.Lens[2] == 0 {
		t.Fatal("the aligned stream start does not decode")
	}
	for off := range text {
		if (0x100002+off)%4 != 0 && tab.Lens[off] != 0 {
			t.Fatalf("misaligned offset %d holds a decode", off)
		}
	}
}

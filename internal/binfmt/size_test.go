package binfmt_test

import (
	"bytes"
	"strings"
	"testing"

	"zipr/internal/binfmt"
	"zipr/internal/cgcsim"
	"zipr/internal/isa"
	"zipr/internal/synth"
)

// checkSize fails unless FileSize is the length of what Marshal
// returns, or 0 where Marshal fails.
func checkSize(t *testing.T, name string, b *binfmt.Binary) {
	t.Helper()
	data, err := b.Marshal()
	if got := b.FileSize(); err != nil && got != 0 {
		t.Errorf("%s: Marshal fails (%v), FileSize = %d, want 0", name, err, got)
	} else if err == nil && got != len(data) {
		t.Errorf("%s: FileSize = %d, Marshal returns %d bytes", name, got, len(data))
	}
}

// TestFileSizeMatchesMarshal pins FileSize, which counts bytes without
// serializing, to Marshal over the challenge corpus on both ISAs and
// the libc-scale library.
func TestFileSizeMatchesMarshal(t *testing.T) {
	for _, arch := range []isa.Arch{isa.ZVM32, isa.ZVM64} {
		cbs, err := cgcsim.Corpus(synth.CorpusSize, arch)
		if err != nil {
			t.Fatal(err)
		}
		for _, cb := range cbs {
			checkSize(t, arch.Name()+"/"+cb.Name, cb.Bin)
		}
	}
	lib, err := synth.Build(11, synth.LibcProfile(1.0))
	if err != nil {
		t.Fatal(err)
	}
	checkSize(t, "library", lib)
}

// TestDataOffsetLocatesPayloads: for every segment of the corpus on
// both ISAs, DataOffset points at the segment's payload in Marshal's
// output; a segment of another binary has no offset.
func TestDataOffsetLocatesPayloads(t *testing.T) {
	for _, arch := range []isa.Arch{isa.ZVM32, isa.ZVM64} {
		cbs, err := cgcsim.Corpus(synth.CorpusSize, arch)
		if err != nil {
			t.Fatal(err)
		}
		for _, cb := range cbs {
			data, err := cb.Bin.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			for i := range cb.Bin.Segments {
				seg := &cb.Bin.Segments[i]
				off := cb.Bin.DataOffset(seg)
				if off < 0 || off+len(seg.Data) > len(data) || !bytes.Equal(data[off:off+len(seg.Data)], seg.Data) {
					t.Fatalf("%s/%s segment %d: offset %d does not locate its payload", arch.Name(), cb.Name, i, off)
				}
			}
			if off := cb.Bin.DataOffset(&cb.Bin.Clone().Segments[0]); off != -1 {
				t.Fatalf("%s/%s: a foreign segment has offset %d", arch.Name(), cb.Name, off)
			}
		}
	}
}

// TestFileSizeZeroWhereMarshalFails covers every way Marshal fails —
// invalid structure (bad type, no text segment), a table count or a
// name too long for its 16-bit length — and the longest lengths that
// still serialize.
func TestFileSizeZeroWhereMarshalFails(t *testing.T) {
	long := strings.Repeat("x", 0x10000)
	for _, c := range []struct {
		name    string
		mutate  func(b *binfmt.Binary)
		wantErr bool
	}{
		{"valid", func(b *binfmt.Binary) {}, false},
		{"bad type", func(b *binfmt.Binary) { b.Type = 7 }, true},
		{"no text", func(b *binfmt.Binary) { b.Segments[0].Kind = binfmt.Data }, true},
		{"long export", func(b *binfmt.Binary) { b.Exports[0].Name = long }, true},
		{"long import", func(b *binfmt.Binary) { b.Imports[0].Name = long }, true},
		{"long lib", func(b *binfmt.Binary) { b.Libs[0] = long }, true},
		{"longest lib", func(b *binfmt.Binary) { b.Libs[0] = long[1:] }, false},
		{"too many libs", func(b *binfmt.Binary) { b.Libs = make([]string, 0x10000) }, true},
		{"most libs", func(b *binfmt.Binary) { b.Libs = make([]string, 0xFFFF) }, false},
		{"too many exports", func(b *binfmt.Binary) {
			b.Exports = make([]binfmt.Symbol, 0x10000)
			for i := range b.Exports {
				b.Exports[i].Addr = 0x1000
			}
		}, true},
	} {
		b := &binfmt.Binary{
			Type:  binfmt.Exec,
			Entry: 0x1000,
			Segments: []binfmt.Segment{
				{Kind: binfmt.Text, VAddr: 0x1000, Data: []byte{0x90, 0xc3}},
				{Kind: binfmt.Data, VAddr: 0x2000, Data: make([]byte, 8)},
			},
			Exports: []binfmt.Symbol{{Name: "main", Addr: 0x1000}},
			Imports: []binfmt.Import{{Name: "lib!fn", GotAddr: 0x2004}},
			Libs:    []string{"lib"},
		}
		c.mutate(b)
		if _, err := b.Marshal(); (err != nil) != c.wantErr {
			t.Errorf("%s: Marshal error %v, want an error: %v", c.name, err, c.wantErr)
		}
		checkSize(t, c.name, b)
	}
}

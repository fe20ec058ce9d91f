package zipr

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"testing"

	"zipr/internal/core"
	"zipr/internal/isa"
	"zipr/internal/synth"
)

// marshalSnapshotOracle is the snapshot encoder as first written: one
// binary.Write per field into a growing buffer. It stays here as the
// byte-for-byte reference for core.Snapshot.Marshal's append encoder.
// Format version 3 adds the ISA name after the version; version 2 blobs
// have none. Version 4 drops the per-unit content digest that versions
// 2 and 3 wrote after each unit's range; the oracle writes it as zeros.
func marshalSnapshotOracle(s *Snapshot, version uint32) []byte {
	var buf bytes.Buffer
	buf.WriteString("ZSNP")
	w32 := func(v uint32) { _ = binary.Write(&buf, binary.LittleEndian, v) }
	w32(version)
	if version >= 3 {
		name := isa.Of(s.Arch).Name()
		w32(uint32(len(name)))
		buf.WriteString(name)
	}
	w32(uint32(len(s.Fingerprint)))
	buf.WriteString(s.Fingerprint)
	w32(s.InTextVA)
	w32(s.InTextEnd)
	w32(s.InTextOff)
	w32(s.OutTextVA)
	w32(s.OutTextOff)
	w32(s.OutTextLen)
	buf.Write(s.InDigest[:])
	buf.Write(s.OutDigest[:])
	w32(uint32(len(s.Input)))
	buf.Write(s.Input)
	w32(uint32(len(s.Output)))
	buf.Write(s.Output)
	w32(uint32(len(s.Units)))
	for i := range s.Units {
		u := &s.Units[i]
		w32(u.Range.Start)
		w32(u.Range.End)
		if version < 4 {
			buf.Write(make([]byte, sha256.Size))
		}
		w32(uint32(len(u.Insts)))
		for _, rec := range u.Insts {
			w32(rec.Off)
			w32(rec.Placed)
			buf.WriteByte(rec.Len)
			buf.WriteByte(rec.Flags)
		}
	}
	return buf.Bytes()
}

// TestSnapshotMarshalMatchesOracle checks the append encoder against the
// reference encoder on corpus snapshots (as captured, and rebased after
// a one-function edit), and that UnmarshalSnapshot round-trips them.
func TestSnapshotMarshalMatchesOracle(t *testing.T) {
	check := func(name string, snap *Snapshot) {
		t.Helper()
		got := snap.Marshal()
		if want := marshalSnapshotOracle(snap, 4); !bytes.Equal(got, want) {
			t.Fatalf("%s: Marshal differs from the reference encoder (%d vs %d bytes)", name, len(got), len(want))
		}
		if cap(got) != len(got) {
			t.Errorf("%s: Marshal buffer cap %d, len %d: size estimate is off", name, cap(got), len(got))
		}
		back, err := core.UnmarshalSnapshot(got)
		if err != nil {
			t.Fatalf("%s: UnmarshalSnapshot: %v", name, err)
		}
		if !bytes.Equal(back.Marshal(), got) {
			t.Fatalf("%s: Marshal/UnmarshalSnapshot does not round-trip", name)
		}
	}
	if empty := (&Snapshot{}); !bytes.Equal(empty.Marshal(), marshalSnapshotOracle(empty, 4)) {
		t.Fatal("empty snapshot: Marshal differs from the reference encoder")
	}

	units := 0
	for i := 0; i < synth.CorpusSize; i += 4 {
		seed, prof := synth.CBProfile(i)
		src := synth.Generate(seed, prof)
		msrc, _ := synth.MutateConsts(src, int64(0x5A70+i), 1)
		base, edited := mustImage(t, src), mustImage(t, msrc)
		for _, cfg := range []Config{{}, {Transforms: []Transform{CFI()}, Layout: LayoutDiversity, Seed: 0x60D5}} {
			cfg.CaptureSnapshot = true
			_, rep, err := Rewrite(base, cfg)
			if err != nil {
				t.Fatalf("cb%02d: %v", i, err)
			}
			if rep.Snapshot == nil {
				t.Fatalf("cb%02d/%s: no snapshot captured", i, deltaConfigName(cfg))
			}
			name := prof.Name + "/" + deltaConfigName(cfg)
			check(name, rep.Snapshot)
			units += len(rep.Snapshot.Units)
			out, _, err := rep.Snapshot.Apply(edited)
			if err != nil {
				continue // refused edits are covered by the delta suite
			}
			check(name+"/rebased", rep.Snapshot.Rebase(edited, sha256.Sum256(edited), out))
		}
	}
	if units == 0 {
		t.Fatal("no corpus snapshot recorded a unit; the comparison is vacuous")
	}
}

// TestSnapshotShapePinned pins how many units and instruction records
// the corpus snapshots hold on each ISA (every fourth CB, null and
// cfi-diversity), so a change to how capture checks a unit cannot drop
// or add units unnoticed.
func TestSnapshotShapePinned(t *testing.T) {
	want := map[string][2]int{"zvm32": {5044, 486390}, "zvm64": {5008, 484322}}
	for _, arch := range []isa.Arch{isa.ZVM32, isa.ZVM64} {
		units, insts := 0, 0
		for i := 0; i < synth.CorpusSize; i += 4 {
			seed, prof := synth.CBProfile(i)
			img := mustImageArch(t, synth.GenerateArch(seed, prof, arch), arch)
			for _, cfg := range []Config{{}, {Transforms: []Transform{CFI()}, Layout: LayoutDiversity, Seed: 0x60D5}} {
				cfg.CaptureSnapshot = true
				if !isa.IsDefault(arch) {
					cfg.ISA = arch.Name()
				}
				_, rep, err := Rewrite(img, cfg)
				if err != nil {
					t.Fatalf("%s/cb%02d/%s: %v", arch.Name(), i, deltaConfigName(cfg), err)
				}
				if rep.Snapshot == nil {
					t.Fatalf("%s/cb%02d/%s: no snapshot captured", arch.Name(), i, deltaConfigName(cfg))
				}
				units += len(rep.Snapshot.Units)
				for _, u := range rep.Snapshot.Units {
					insts += len(u.Insts)
				}
			}
		}
		if got := [2]int{units, insts}; got != want[arch.Name()] {
			t.Errorf("%s: corpus snapshots hold %d units and %d instruction records, want %d and %d",
				arch.Name(), units, insts, want[arch.Name()][0], want[arch.Name()][1])
		}
	}
}

// TestSnapshotFormatV4 checks that a marshaled snapshot carries its ISA
// on both ISAs, and that blobs of the previous formats, naming an
// unknown ISA, or whose images fail their digests are refused as stale
// (the disk tier then deletes them).
func TestSnapshotFormatV4(t *testing.T) {
	seed, prof := synth.CBProfile(3)
	src := synth.Generate(seed, prof)
	_, rep, err := Rewrite(mustImage(t, src), Config{CaptureSnapshot: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Snapshot == nil {
		t.Fatal("zvm32: no snapshot captured")
	}
	_, snap64, err := rewriteZVM64(mustImageArch(t, synth.GenerateArch(seed, prof, isa.ZVM64), isa.ZVM64), Config{})
	if err != nil {
		t.Fatalf("zvm64 capture: %v", err)
	}
	for _, snap := range []*Snapshot{rep.Snapshot, snap64} {
		name := snap.Arch.Name()
		blob := snap.Marshal()
		back, err := core.UnmarshalSnapshot(blob)
		if err != nil {
			t.Fatalf("%s: UnmarshalSnapshot: %v", name, err)
		}
		if back.Arch != snap.Arch {
			t.Fatalf("%s: round trip gives Arch %v", name, back.Arch)
		}
		if !bytes.Equal(back.Marshal(), blob) {
			t.Fatalf("%s: Marshal/UnmarshalSnapshot does not round-trip", name)
		}

		unknown := bytes.Replace(blob, []byte(name), []byte("zvm99"), 1)
		if _, err := core.UnmarshalSnapshot(unknown); !errors.Is(err, ErrSnapshotStale) {
			t.Fatalf("%s: unknown ISA name: err = %v, want ErrSnapshotStale", name, err)
		}
		for _, v := range []uint32{2, 3} {
			if _, err := core.UnmarshalSnapshot(marshalSnapshotOracle(snap, v)); !errors.Is(err, ErrSnapshotStale) {
				t.Fatalf("%s: version %d blob: err = %v, want ErrSnapshotStale", name, v, err)
			}
		}
		rotted := bytes.Clone(blob)
		rotted[bytes.Index(blob, snap.Output)] ^= 0xFF
		if _, err := core.UnmarshalSnapshot(rotted); !errors.Is(err, ErrSnapshotStale) {
			t.Fatalf("%s: blob with a flipped output byte: err = %v, want ErrSnapshotStale", name, err)
		}
	}
}

package zipr

import (
	"bytes"
	"encoding/binary"
	"testing"

	"zipr/internal/core"
	"zipr/internal/synth"
)

// marshalSnapshotOracle is the snapshot encoder as first written: one
// binary.Write per field into a growing buffer. It stays here as the
// byte-for-byte reference for core.Snapshot.Marshal's append encoder.
func marshalSnapshotOracle(s *Snapshot) []byte {
	var buf bytes.Buffer
	buf.WriteString("ZSNP")
	w32 := func(v uint32) { _ = binary.Write(&buf, binary.LittleEndian, v) }
	w32(2)
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
		buf.Write(u.Digest[:])
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
		if want := marshalSnapshotOracle(snap); !bytes.Equal(got, want) {
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
	if empty := (&Snapshot{}); !bytes.Equal(empty.Marshal(), marshalSnapshotOracle(empty)) {
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
			out, info, err := rep.Snapshot.Apply(edited)
			if err != nil {
				continue // refused edits are covered by the delta suite
			}
			rebased, err := rep.Snapshot.Rebase(edited, out, info)
			if err != nil {
				t.Fatalf("%s: Rebase: %v", name, err)
			}
			check(name+"/rebased", rebased)
		}
	}
	if units == 0 {
		t.Fatal("no corpus snapshot recorded a unit; the comparison is vacuous")
	}
}

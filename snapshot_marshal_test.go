package zipr

import (
	"bufio"
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
// Version 5 replaces the per-instruction records that followed each
// unit's range with a span count, and writes all spans after the units.
// For versions before 5 the oracle writes each span as one record
// flagged editable: a blob of that layout, though not the records that
// version's capture wrote.
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
	w32(uint32(s.Input.Len()))
	buf.Write(s.Input.Bytes())
	w32(uint32(s.Output.Len()))
	buf.Write(s.Output.Bytes())
	w32(uint32(len(s.Units)))
	for _, u := range s.Units {
		w32(u.Range.Start)
		w32(u.Range.End)
		if version < 4 {
			buf.Write(make([]byte, sha256.Size))
		}
		w32(u.Hi - u.Lo)
		if version < 5 {
			for _, sp := range s.Spans[u.Lo:u.Hi] {
				w32(sp.Off)
				w32(sp.Placed)
				buf.WriteByte(byte(sp.Len))
				buf.WriteByte(1 << 1)
			}
		}
	}
	if version >= 5 {
		for _, sp := range s.Spans {
			w32(sp.Off)
			w32(sp.Len)
			w32(sp.Placed)
		}
	}
	return buf.Bytes()
}

// TestSnapshotMarshalMatchesOracle checks the append encoder against the
// reference encoder on corpus snapshots (as captured, and rebased after
// a one-function edit), that Stream writes the same bytes, and that
// UnmarshalSnapshot round-trips them.
func TestSnapshotMarshalMatchesOracle(t *testing.T) {
	check := func(name string, snap *Snapshot) {
		t.Helper()
		got := snap.Marshal()
		if want := marshalSnapshotOracle(snap, 5); !bytes.Equal(got, want) {
			t.Fatalf("%s: Marshal differs from the reference encoder (%d vs %d bytes)", name, len(got), len(want))
		}
		if cap(got) != len(got) {
			t.Errorf("%s: Marshal buffer cap %d, len %d: size estimate is off", name, cap(got), len(got))
		}
		var streamed bytes.Buffer
		if err := snap.Stream(bufio.NewWriter(&streamed)); err != nil || !bytes.Equal(streamed.Bytes(), got) {
			t.Fatalf("%s: Stream wrote %d bytes (err %v), not Marshal's %d", name, streamed.Len(), err, len(got))
		}
		back, err := core.UnmarshalSnapshot(got)
		if err != nil {
			t.Fatalf("%s: UnmarshalSnapshot: %v", name, err)
		}
		if !bytes.Equal(back.Marshal(), got) {
			t.Fatalf("%s: Marshal/UnmarshalSnapshot does not round-trip", name)
		}
	}
	if empty := (&Snapshot{}); !bytes.Equal(empty.Marshal(), marshalSnapshotOracle(empty, 5)) {
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

// TestSnapshotShapePinned pins how many units and editable spans the
// corpus snapshots hold on each ISA (every fourth CB, null and
// cfi-diversity), and how many input bytes those spans cover, so a
// change to how capture checks a unit or an instruction cannot drop or
// add units or editable bytes unnoticed. The editable bytes are the
// figure the per-instruction records of format v4 gave.
func TestSnapshotShapePinned(t *testing.T) {
	want := map[string][3]int{"zvm32": {5044, 72493, 1688790}, "zvm64": {5008, 71754, 2274952}}
	for _, arch := range []isa.Arch{isa.ZVM32, isa.ZVM64} {
		units, spans, editable := 0, 0, 0
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
				spans += len(rep.Snapshot.Spans)
				for _, sp := range rep.Snapshot.Spans {
					editable += int(sp.Len)
				}
			}
		}
		if got, w := [3]int{units, spans, editable}, want[arch.Name()]; got != w {
			t.Errorf("%s: corpus snapshots hold %d units and %d spans of %d editable bytes, want %d, %d and %d",
				arch.Name(), units, spans, editable, w[0], w[1], w[2])
		}
	}
}

// TestSnapshotFormatV5 checks that a marshaled snapshot carries its ISA
// on both ISAs, and that blobs of the previous formats, naming an
// unknown ISA, or whose images fail their digests are refused as stale
// (the disk tier then deletes them).
func TestSnapshotFormatV5(t *testing.T) {
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
		for _, v := range []uint32{2, 3, 4} {
			if _, err := core.UnmarshalSnapshot(marshalSnapshotOracle(snap, v)); !errors.Is(err, ErrSnapshotStale) {
				t.Fatalf("%s: version %d blob: err = %v, want ErrSnapshotStale", name, v, err)
			}
		}
		rotted := bytes.Clone(blob)
		rotted[bytes.Index(blob, snap.Output.Bytes())] ^= 0xFF
		if _, err := core.UnmarshalSnapshot(rotted); !errors.Is(err, ErrSnapshotStale) {
			t.Fatalf("%s: blob with a flipped output byte: err = %v, want ErrSnapshotStale", name, err)
		}
	}
}

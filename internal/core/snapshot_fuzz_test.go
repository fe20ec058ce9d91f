package core_test

import (
	"bytes"
	"errors"
	"testing"

	"zipr"
	"zipr/internal/asm"
	"zipr/internal/core"
	"zipr/internal/isa"
	"zipr/internal/synth"
)

// FuzzUnmarshalSnapshot feeds UnmarshalSnapshot arbitrary blobs, seeded
// with marshalled corpus snapshots of both ISAs and their truncations.
// It must not panic and must refuse with ErrSnapshotStale; a blob it
// accepts must marshal back to the same bytes, and Apply of its own
// ancestor input must return its ancestor output or a typed error.
func FuzzUnmarshalSnapshot(f *testing.F) {
	seed, prof := synth.CBProfile(0)
	for _, arch := range []isa.Arch{isa.ZVM32, isa.ZVM64} {
		bin, err := asm.AssembleArch(synth.GenerateArch(seed, prof, arch), arch)
		if err != nil {
			f.Fatal(err)
		}
		img, err := bin.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		for _, cfg := range []zipr.Config{{}, {Transforms: []zipr.Transform{zipr.CFI()}, Layout: zipr.LayoutDiversity, Seed: 0x60D5}} {
			cfg.ISA, cfg.CaptureSnapshot = arch.Name(), true
			_, rep, err := zipr.Rewrite(img, cfg)
			if err != nil || rep.Snapshot == nil {
				f.Fatalf("%s: no snapshot captured: %v", arch.Name(), err)
			}
			blob := rep.Snapshot.Marshal()
			f.Add(blob)
			for _, n := range []int{len(blob) - 1, len(blob) - 12, len(blob) / 2, 64} {
				f.Add(blob[:n])
			}
		}
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		s, err := core.UnmarshalSnapshot(blob)
		if err != nil {
			if !errors.Is(err, core.ErrSnapshotStale) {
				t.Fatalf("refusal is not ErrSnapshotStale: %v", err)
			}
			return
		}
		if !bytes.Equal(s.Marshal(), blob) {
			t.Fatal("accepted blob does not marshal back to its bytes")
		}
		out, _, err := s.Apply(s.Input.Bytes())
		if err != nil {
			if !errors.Is(err, core.ErrSnapshotStale) && !errors.Is(err, core.ErrDeltaInapplicable) {
				t.Fatalf("Apply of the ancestor input: untyped error %v", err)
			}
			return
		}
		if !bytes.Equal(out.Bytes(), s.Output.Bytes()) {
			t.Fatal("Apply of the ancestor input does not return the ancestor output")
		}
	})
}

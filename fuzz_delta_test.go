package zipr

// Native-fuzzing form of the delta identity property (ISSUE 7): for any
// synthesized program, transform stack, layout, and constant edit, a
// placement snapshot of the base must either apply to the edited input
// byte-for-byte identically to a from-scratch rewrite, or refuse with a
// typed error while the full pipeline still succeeds — never a silently
// divergent binary. isaSel's low bit picks the ISA the program is built
// and rewritten for (0 ZVM-32, 1 ZVM-64). `make fuzzsmoke` runs this for
// a bounded time;
// `go test -fuzz FuzzDeltaEquivalence .` explores open-endedly.

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"zipr/internal/asm"
	"zipr/internal/isa"
	"zipr/internal/synth"
)

func FuzzDeltaEquivalence(f *testing.F) {
	f.Add(int64(1), byte(0x00), byte(0), int64(11), byte(1), byte(0))
	f.Add(int64(7), byte(0x10), byte(1), int64(23), byte(2), byte(0))
	f.Add(int64(42), byte(0x1f), byte(2), int64(37), byte(4), byte(0))
	f.Add(int64(1), byte(0x00), byte(0), int64(11), byte(1), byte(1))
	f.Add(int64(3), byte(0x10), byte(1), int64(23), byte(1), byte(1))
	f.Add(int64(3), byte(0x0c), byte(2), int64(37), byte(2), byte(1))
	f.Fuzz(func(t *testing.T, seed int64, stackBits, layoutSel byte, mutSeed int64, editSel, isaSel byte) {
		arch, isaName := isa.DefaultArch(), ""
		if isaSel&1 != 0 {
			arch, isaName = isa.ZVM64, "zvm64"
		}
		r := rand.New(rand.NewSource(seed))
		profile := synth.Profile{
			Name:             "fuzzdelta",
			NumFuncs:         4 + r.Intn(12),
			OpsMin:           2 + r.Intn(4),
			OpsMax:           8 + r.Intn(12),
			HandwrittenFrac:  r.Float64() * 0.6,
			FuncPtrTableFrac: r.Float64() * 0.5,
			DataWords:        16 + r.Intn(128),
			InputLen:         4 + r.Intn(12),
			LoopIters:        2 + r.Intn(8),
		}
		src := synth.GenerateArch(seed, profile, arch)
		// editSel picks how many functions the constant edit touches:
		// 0 (degenerate identical input), 1, 2, or every function.
		count := int(editSel) % 4
		if count == 3 {
			count = -1
		}
		msrc, _ := synth.MutateConsts(src, mutSeed, count)
		images := make([][]byte, 2)
		for i, s := range []string{src, msrc} {
			bin, err := asm.AssembleArch(s, arch)
			if err != nil {
				t.Fatalf("assemble: %v", err)
			}
			img, err := bin.Marshal()
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			images[i] = img
		}
		base, edited := images[0], images[1]

		var tfs []Transform
		if stackBits&1 != 0 {
			tfs = append(tfs, Stir(seed))
		}
		if stackBits&2 != 0 {
			tfs = append(tfs, NopElide())
		}
		if stackBits&4 != 0 {
			tfs = append(tfs, StackPad(32))
		}
		if stackBits&8 != 0 {
			tfs = append(tfs, Canary(uint32(seed)|1))
		}
		if stackBits&16 != 0 {
			tfs = append(tfs, CFI())
		}
		if len(tfs) == 0 {
			tfs = []Transform{Null()}
		}
		layouts := []LayoutKind{LayoutOptimized, LayoutDiversity, LayoutProfileGuided}
		cfg := Config{
			Transforms:      tfs,
			Layout:          layouts[int(layoutSel)%len(layouts)],
			Seed:            seed,
			ISA:             isaName,
			CaptureSnapshot: true,
		}
		_, rep, err := Rewrite(base, cfg)
		if err != nil {
			t.Fatalf("base rewrite (%s, bits=%#x, %s): %v", arch.Name(), stackBits, cfg.Layout, err)
		}
		if rep.Snapshot == nil {
			t.Fatalf("built-in stack captured no snapshot (%s, bits=%#x, %s)", arch.Name(), stackBits, cfg.Layout)
		}
		got, _, err := rep.Snapshot.Apply(edited)
		want, _, werr := Rewrite(edited, cfg)
		if werr != nil {
			t.Fatalf("from-scratch rewrite of edited input: %v", werr)
		}
		if err != nil {
			// Refusal is a legal outcome (the edited function may be
			// delta-ineligible), but it must be typed — the serving layer
			// dispatches the fallback on these classes.
			if !errors.Is(err, ErrDeltaInapplicable) && !errors.Is(err, ErrSnapshotStale) {
				t.Fatalf("delta refused with untyped error: %v", err)
			}
			return
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("delta output diverges from from-scratch rewrite (%s, bits=%#x, %s, edits=%d)",
				arch.Name(), stackBits, cfg.Layout, count)
		}
	})
}

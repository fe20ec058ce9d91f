package zipr

// Placement snapshots under the fixed-width ISA. Rewrite declines
// snapshot capture on ZVM-64 (see captureSnapshot), so these tests drive
// the pipeline stages by hand — disassembly, CFG, transforms,
// reassembly, then BuildSnapshot + Finish — and hold the snapshot to the
// same contract as on ZVM-32: Apply on a one-function constant edit is
// byte-for-byte the staged rewrite of the edited input, or a typed
// refusal.

import (
	"bytes"
	"errors"
	"testing"

	"zipr/internal/asm"
	"zipr/internal/binfmt"
	"zipr/internal/cfg"
	"zipr/internal/core"
	"zipr/internal/disasm"
	"zipr/internal/isa"
	"zipr/internal/layout"
	"zipr/internal/synth"
	"zipr/internal/transform"
)

// stagedCell is one (stack × layout) cell of the staged pipeline.
type stagedCell struct {
	name   string
	cfi    bool
	placer func() core.Placer
}

// stagedCells mirrors deltaConfigs: null/cfi under both layouts.
func stagedCells() []stagedCell {
	optimized := func() core.Placer { return layout.Optimized{} }
	diversity := func() core.Placer { return layout.NewDiversity(0x60D5) }
	return []stagedCell{
		{"null-optimized", false, optimized},
		{"null-diversity", false, diversity},
		{"cfi-optimized", true, optimized},
		{"cfi-diversity", true, diversity},
	}
}

// stagedRewrite rewrites image under arch through the pipeline stages
// and returns the output image with its finished placement snapshot.
func stagedRewrite(image []byte, arch isa.Arch, c stagedCell) ([]byte, *core.Snapshot, error) {
	bin, err := binfmt.Unmarshal(image)
	if err != nil {
		return nil, nil, err
	}
	agg, err := disasm.DisassembleOpts(bin, disasm.Options{Arch: arch})
	if err != nil {
		return nil, nil, err
	}
	prog, err := cfg.BuildOpts(bin, agg, cfg.Options{})
	if err != nil {
		return nil, nil, err
	}
	var ts []transform.Transform
	if c.cfi {
		ts = append(ts, transform.CFI{})
	}
	if err := transform.ApplyTraced(prog, nil, ts...); err != nil {
		return nil, nil, err
	}
	res, err := core.Reassemble(prog, core.Options{Placer: c.placer()})
	if err != nil {
		return nil, nil, err
	}
	out, err := res.Binary.Marshal()
	if err != nil {
		return nil, nil, err
	}
	snap, err := core.BuildSnapshot(prog, res, false, "staged/"+c.name)
	if err != nil {
		return nil, nil, err
	}
	if err := snap.Finish(image, out); err != nil {
		return nil, nil, err
	}
	return out, snap, nil
}

// mustImageArch assembles source under arch and serializes it.
func mustImageArch(t *testing.T, src string, arch isa.Arch) []byte {
	t.Helper()
	bin, err := asm.AssembleArch(src, arch)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	data, err := bin.Marshal()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return data
}

// TestSnapshotIdentityZVM64 is TestDeltaIdentityCorpus on the ZVM-64
// corpus. An applied edit must match the staged rewrite of the edited
// input byte for byte, and its Rebase must refresh each changed unit to
// the digest a fresh capture of the edited input records; a refusal
// must be typed, and most cells must apply. Cells whose base rewrite
// fails are skipped: cb11 under cfi-optimized hits the known CFI
// target-table overflow.
func TestSnapshotIdentityZVM64(t *testing.T) {
	stride := goldenStride
	if testing.Short() && stride < 4 {
		stride = 4
	}
	applied, refused, skipped := 0, 0, 0
	for i := 0; i < synth.CorpusSize; i += stride {
		seed, prof := synth.CBProfile(i)
		src := synth.GenerateArch(seed, prof, isa.ZVM64)
		msrc, n := synth.MutateConsts(src, int64(0xD1F0+i), 1)
		if n != 1 {
			t.Fatalf("cb%02d: mutated %d functions, want 1", i, n)
		}
		base, edited := mustImageArch(t, src, isa.ZVM64), mustImageArch(t, msrc, isa.ZVM64)
		for _, c := range stagedCells() {
			_, snap, err := stagedRewrite(base, isa.ZVM64, c)
			if err != nil {
				t.Logf("cb%02d/%s: base rewrite fails, cell skipped: %v", i, c.name, err)
				skipped++
				continue
			}
			if snap.Arch != isa.ZVM64 {
				t.Fatalf("cb%02d/%s: snapshot Arch = %v, want zvm64", i, c.name, snap.Arch)
			}
			got, info, err := snap.Apply(edited)
			if err != nil {
				if !errors.Is(err, ErrDeltaInapplicable) && !errors.Is(err, ErrSnapshotStale) {
					t.Fatalf("cb%02d/%s: untyped refusal: %v", i, c.name, err)
				}
				refused++
				continue
			}
			want, wantSnap, err := stagedRewrite(edited, isa.ZVM64, c)
			if err != nil {
				t.Fatalf("cb%02d/%s: rewrite of edited input: %v", i, c.name, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("cb%02d/%s: delta output diverges (%d insts patched in %d units)",
					i, c.name, info.InstsChanged, info.UnitsChanged)
			}
			if info.InstsChanged == 0 {
				t.Fatalf("cb%02d/%s: no instruction patched for a real edit", i, c.name)
			}
			rebased, err := snap.Rebase(edited, got, info)
			if err != nil {
				t.Fatalf("cb%02d/%s: Rebase: %v", i, c.name, err)
			}
			if len(rebased.Units) != len(wantSnap.Units) {
				t.Fatalf("cb%02d/%s: rebased %d units, fresh capture %d", i, c.name, len(rebased.Units), len(wantSnap.Units))
			}
			for _, ui := range info.Changed {
				r, w := rebased.Units[ui], wantSnap.Units[ui]
				if r.Range != w.Range || r.Digest != w.Digest {
					t.Fatalf("cb%02d/%s: rebased unit %+v digest differs from a fresh capture", i, c.name, r.Range)
				}
				if r.Digest == snap.Units[ui].Digest {
					t.Fatalf("cb%02d/%s: Rebase kept the ancestor digest of changed unit %+v", i, c.name, r.Range)
				}
			}
			applied++
		}
	}
	t.Logf("zvm64 delta applied %d cells, refused %d, skipped %d", applied, refused, skipped)
	if applied == 0 || applied < refused {
		t.Fatalf("delta applied %d cells and refused %d; want applied > 0 and applied >= refused", applied, refused)
	}
	if skipped > applied {
		t.Fatalf("%d cells skipped on base-rewrite failure, more than the %d applied", skipped, applied)
	}
}

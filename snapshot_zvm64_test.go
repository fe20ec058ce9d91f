package zipr

// Placement snapshots under the fixed-width ISA. Rewrite captures
// snapshots on ZVM-64 as it does on ZVM-32, and these tests hold them to
// the same contract: Apply on a one-function constant edit is
// byte-for-byte the rewrite of the edited input, or a typed refusal.

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"slices"
	"testing"

	"zipr/internal/asm"
	"zipr/internal/isa"
	"zipr/internal/synth"
)

// rewriteZVM64 rewrites image on ZVM-64 under cfg with snapshot capture
// and returns the output image with its finished placement snapshot.
func rewriteZVM64(image []byte, cfg Config) ([]byte, *Snapshot, error) {
	cfg.ISA, cfg.CaptureSnapshot = "zvm64", true
	out, rep, err := Rewrite(image, cfg)
	if err != nil {
		return nil, nil, err
	}
	if rep.Snapshot == nil {
		return nil, nil, errors.New("no snapshot captured")
	}
	return out, rep.Snapshot, nil
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
// corpus, over the same four (stack × layout) cells. An applied edit
// must match the rewrite of the edited input byte for byte, and its
// Rebase must equal a fresh capture of the edited input: the same units
// and instruction records, the edited images and their digests; a
// refusal must be typed, and most cells must apply. Cells whose base
// rewrite fails are skipped: cb11 under cfi-optimized hits the known CFI
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
		for _, cfg := range deltaConfigs() {
			cell := deltaConfigName(cfg)
			_, snap, err := rewriteZVM64(base, cfg)
			if err != nil {
				t.Logf("cb%02d/%s: base rewrite fails, cell skipped: %v", i, cell, err)
				skipped++
				continue
			}
			if snap.Arch != isa.ZVM64 {
				t.Fatalf("cb%02d/%s: snapshot Arch = %v, want zvm64", i, cell, snap.Arch)
			}
			got, info, err := snap.Apply(edited)
			if err != nil {
				if !errors.Is(err, ErrDeltaInapplicable) && !errors.Is(err, ErrSnapshotStale) {
					t.Fatalf("cb%02d/%s: untyped refusal: %v", i, cell, err)
				}
				refused++
				continue
			}
			want, wantSnap, err := rewriteZVM64(edited, cfg)
			if err != nil {
				t.Fatalf("cb%02d/%s: rewrite of edited input: %v", i, cell, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("cb%02d/%s: delta output diverges (%d insts patched in %d units)",
					i, cell, info.InstsChanged, info.UnitsChanged)
			}
			if info.InstsChanged == 0 {
				t.Fatalf("cb%02d/%s: no instruction patched for a real edit", i, cell)
			}
			rebased := snap.Rebase(edited, sha256.Sum256(edited), got)
			if len(rebased.Units) != len(wantSnap.Units) {
				t.Fatalf("cb%02d/%s: rebased %d units, fresh capture %d", i, cell, len(rebased.Units), len(wantSnap.Units))
			}
			for ui, r := range rebased.Units {
				if w := wantSnap.Units[ui]; r.Range != w.Range || !slices.Equal(r.Insts, w.Insts) {
					t.Fatalf("cb%02d/%s: rebased unit %+v differs from a fresh capture", i, cell, r.Range)
				}
			}
			if !bytes.Equal(rebased.Input, wantSnap.Input) || !bytes.Equal(rebased.Output, wantSnap.Output) ||
				rebased.InDigest != wantSnap.InDigest || rebased.OutDigest != wantSnap.OutDigest {
				t.Fatalf("cb%02d/%s: rebased images or digests differ from a fresh capture", i, cell)
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

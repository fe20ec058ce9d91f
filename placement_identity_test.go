package zipr

import (
	"bytes"
	"testing"

	"zipr/internal/binfmt"
	"zipr/internal/cgcsim"
	"zipr/internal/core"
	"zipr/internal/ir"
)

// The indexed allocator must be a pure complexity change: every layout
// strategy has to produce bit-identical binaries when driven through
// the O(log n) queries instead of the legacy full-snapshot linear
// scans. These tests rewrite a corpus twice — once with the production
// placers, once with the legacy slice-scanning placers preserved in
// legacy_placer_test.go — and compare the serialized images byte for byte.

// imageWith rewrites bin with an optional placer hook and returns the
// serialized output image.
func imageWith(t *testing.T, bin *binfmt.Binary, cfg Config, hook func(*ir.Program) core.Placer) []byte {
	t.Helper()
	out, _, err := rewriteBinaryPlacer(bin.Clone(), cfg, hook)
	if err != nil {
		t.Fatal(err)
	}
	img, err := out.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func identityCorpus(t *testing.T) []cgcsim.CB {
	t.Helper()
	cbs, err := cgcsim.Corpus(6, nil)
	if err != nil {
		t.Fatal(err)
	}
	return cbs
}

func TestOptimizedByteIdentityWithLegacyPlacer(t *testing.T) {
	for _, cb := range identityCorpus(t) {
		for _, transforms := range [][]Transform{
			{Null()},
			{CFI()}, // synthesized checks churn free space much harder
		} {
			cfg := Config{Transforms: transforms}
			want := imageWith(t, cb.Bin, cfg, func(*ir.Program) core.Placer {
				return LegacyOptimized{}
			})
			got := imageWith(t, cb.Bin, cfg, nil)
			if !bytes.Equal(want, got) {
				t.Fatalf("%s: optimized output diverged from legacy placer", cb.Name)
			}
		}
	}
}

func TestProfileGuidedByteIdentityWithLegacyPlacer(t *testing.T) {
	for _, cb := range identityCorpus(t) {
		hot := []uint32{cb.Bin.Entry}
		cfg := Config{Transforms: []Transform{Null()}, Layout: LayoutProfileGuided, HotFuncs: hot}
		want := imageWith(t, cb.Bin, cfg, func(prog *ir.Program) core.Placer {
			return &LegacyProfileGuided{Hot: hotRanges(prog, hot)}
		})
		got := imageWith(t, cb.Bin, cfg, nil)
		if !bytes.Equal(want, got) {
			t.Fatalf("%s: profile-guided output diverged from legacy placer", cb.Name)
		}
	}
}

func TestProfileGuidedByteIdentityWithRealProfile(t *testing.T) {
	// Same comparison with a profiler-derived hot set instead of the
	// entry-function stand-in.
	orig, profile := pgoWorkload(t)
	training := bytes.Repeat([]byte{0x21}, profile.InputLen)
	hot := collectProfile(t, orig, training)
	cfg := Config{Layout: LayoutProfileGuided, HotFuncs: hot}
	want := imageWith(t, orig, cfg, func(prog *ir.Program) core.Placer {
		return &LegacyProfileGuided{Hot: hotRanges(prog, hot)}
	})
	got := imageWith(t, orig, cfg, nil)
	if !bytes.Equal(want, got) {
		t.Fatal("profile-guided output diverged from legacy placer")
	}
}

func TestDiversityByteIdentityWithLegacyPlacer(t *testing.T) {
	// Diversity draws (block, offset) pairs from a seeded rng: identical
	// placements require the query path to surface fitting blocks in the
	// exact order the legacy scan did, so this doubles as a determinism
	// test per seed.
	for _, cb := range identityCorpus(t)[:3] {
		for _, seed := range []int64{1, 42, 0xC0FFEE} {
			cfg := Config{Transforms: []Transform{Null()}, Layout: LayoutDiversity, Seed: seed}
			want := imageWith(t, cb.Bin, cfg, func(*ir.Program) core.Placer {
				return NewLegacyDiversity(seed)
			})
			got := imageWith(t, cb.Bin, cfg, nil)
			if !bytes.Equal(want, got) {
				t.Fatalf("%s seed %d: diversity output diverged from legacy placer", cb.Name, seed)
			}
			again := imageWith(t, cb.Bin, cfg, nil)
			if !bytes.Equal(got, again) {
				t.Fatalf("%s seed %d: diversity output not deterministic", cb.Name, seed)
			}
		}
	}
}

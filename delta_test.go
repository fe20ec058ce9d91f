package zipr

// Differential identity suite for incremental (delta) rewriting: a
// delta-applied output must be byte-for-byte what a from-scratch rewrite
// of the edited input produces, for every golden-corpus program under a
// 1-function synthetic edit, across both layouts and the null/cfi
// transform stacks (ISSUE 7 acceptance). Structural edits (rel8→rel32
// widening), out-of-unit edits and zero-function inputs must be refused
// with a typed error — the caller then runs the full pipeline, so the
// only cost of refusal is latency.

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"zipr/internal/asm"
	"zipr/internal/binfmt"
	"zipr/internal/cgcsim"
	"zipr/internal/core"
	"zipr/internal/ir"
	"zipr/internal/isa"
	"zipr/internal/layout"
	"zipr/internal/synth"
	"zipr/internal/transform"
)

// deltaConfigs are the (stack × layout) cells the identity suite runs:
// the golden suite's null/cfi stacks under both layouts.
func deltaConfigs() []Config {
	return []Config{
		{},
		{Layout: LayoutDiversity, Seed: 0x60D5},
		{Transforms: []Transform{CFI()}},
		{Transforms: []Transform{CFI()}, Layout: LayoutDiversity, Seed: 0x60D5},
	}
}

func deltaConfigName(c Config) string {
	name := "null"
	if len(c.Transforms) > 0 {
		name = "cfi"
	}
	if c.Layout == LayoutDiversity {
		return name + "-diversity"
	}
	return name + "-optimized"
}

// mustBinary assembles source.
func mustBinary(t *testing.T, src string) *binfmt.Binary {
	t.Helper()
	bin, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return bin
}

// mustImage assembles and serializes source.
func mustImage(t *testing.T, src string) []byte {
	t.Helper()
	data, err := mustBinary(t, src).Marshal()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return data
}

// checkDeltaIdentity captures a snapshot rewriting base, applies it to
// edited, and requires byte equality with edited's from-scratch rewrite.
// Returns false when the snapshot refused the edit (callers decide
// whether refusal is acceptable).
func checkDeltaIdentity(t *testing.T, cfg Config, base, edited []byte) bool {
	t.Helper()
	cfg.CaptureSnapshot = true
	_, rep, err := Rewrite(base, cfg)
	if err != nil {
		t.Fatalf("base rewrite: %v", err)
	}
	if rep.Snapshot == nil {
		t.Fatalf("no snapshot captured")
	}
	checkFlatOracle(t, rep.Snapshot, base, edited)
	got, info, err := rep.Snapshot.Apply(edited)
	if err != nil {
		if !errors.Is(err, ErrDeltaInapplicable) && !errors.Is(err, ErrSnapshotStale) {
			t.Fatalf("delta apply failed with untyped error: %v", err)
		}
		t.Logf("delta refused: %v", err)
		return false
	}
	want, _, err := Rewrite(edited, cfg)
	if err != nil {
		t.Fatalf("from-scratch rewrite of edited input: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("delta output diverges from from-scratch rewrite (%d insts patched in %d units)",
			info.InstsChanged, info.UnitsChanged)
	}
	if info.InstsChanged == 0 {
		t.Fatalf("delta reported no patched instructions for a real edit")
	}
	return true
}

// TestDeltaIdentityCorpus is the acceptance sweep: every golden-corpus
// program under a 1-function constant edit, across all four cells. A
// program whose edited function is delta-ineligible (handwritten blocks
// embed data in text, so its unit overlaps a fixed range) may refuse —
// the serving layer then runs the full pipeline, which is trivially
// identical — but a refusal must be typed, and most of the corpus must
// take the delta path or the optimization is vacuous.
func TestDeltaIdentityCorpus(t *testing.T) {
	stride := goldenStride
	if testing.Short() && stride < 4 {
		stride = 4
	}
	applied, refused := 0, 0
	for i := 0; i < synth.CorpusSize; i += stride {
		seed, prof := synth.CBProfile(i)
		src := synth.Generate(seed, prof)
		msrc, n := synth.MutateConsts(src, int64(0xD1F0+i), 1)
		if n != 1 {
			t.Fatalf("cb%02d: mutated %d functions, want 1", i, n)
		}
		base, edited := mustImage(t, src), mustImage(t, msrc)
		for _, cfg := range deltaConfigs() {
			if checkDeltaIdentity(t, cfg, base, edited) {
				applied++
			} else {
				refused++
			}
		}
	}
	t.Logf("delta applied %d cells, refused %d", applied, refused)
	if applied < refused {
		t.Fatalf("delta refused more cells than it applied (%d vs %d)", refused, applied)
	}
}

// TestDeltaEditSweep is the correctness backing of the EXPERIMENTS.md
// edit-latency sweep: 0, 1, 10, and all functions changed. Identity must
// hold at every point, the patched-unit count must track the edit size,
// and the 0-edit point must return the ancestor output untouched.
func TestDeltaEditSweep(t *testing.T) {
	src := synth.Generate(0x5EEE, synth.Profile{
		Name: "sweep", NumFuncs: 60, OpsMin: 4, OpsMax: 10,
		FuncPtrTableFrac: 0.2, DataWords: 64, InputLen: 8, LoopIters: 4,
	})
	base := mustImage(t, src)
	cfg := Config{CaptureSnapshot: true}
	_, rep, err := Rewrite(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Snapshot == nil {
		t.Fatal("no snapshot captured")
	}
	prevUnits := -1
	for _, edits := range []int{0, 1, 10, -1} {
		msrc, n := synth.MutateConsts(src, 0x33+int64(edits), edits)
		if edits >= 0 && n != edits {
			t.Fatalf("edits=%d: mutated %d functions", edits, n)
		}
		edited := mustImage(t, msrc)
		got, info, err := rep.Snapshot.Apply(edited)
		if err != nil {
			t.Fatalf("edits=%d: delta refused: %v", edits, err)
		}
		want, _, err := Rewrite(edited, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("edits=%d: delta output diverges", edits)
		}
		if info.UnitsChanged < prevUnits {
			t.Fatalf("edits=%d: patched units %d shrank below the previous sweep point %d",
				edits, info.UnitsChanged, prevUnits)
		}
		prevUnits = info.UnitsChanged
		if edits == 0 && info.InstsChanged != 0 {
			t.Fatalf("0-edit point patched %d instructions", info.InstsChanged)
		}
		t.Logf("edits=%d: %d units, %d insts patched", edits, info.UnitsChanged, info.InstsChanged)
	}
	if prevUnits < 30 {
		t.Fatalf("all-function edit patched only %d units of 60", prevUnits)
	}
}

// TestDeltaIdentitySmall pins the mechanism on one small program across
// every (stack × layout) cell before the corpus-wide sweep, including
// the golden suite's full stack — StackPad and Canary make the
// configuration frame-sensitive, exercising the sp-adjustment exclusion.
func TestDeltaIdentitySmall(t *testing.T) {
	seed, prof := synth.CBProfile(3)
	src := synth.Generate(seed, prof)
	msrc, n := synth.MutateConsts(src, 0xED17, 1)
	if n != 1 {
		t.Fatalf("mutated %d functions, want 1", n)
	}
	base, edited := mustImage(t, src), mustImage(t, msrc)
	if bytes.Equal(base, edited) {
		t.Fatal("mutation produced identical image")
	}
	full := []Transform{Stir(0x57123), NopElide(), StackPad(48), Canary(0xA5A5A5A5), CFI()}
	cells := append(deltaConfigs(),
		Config{Transforms: full},
		Config{Transforms: full, Layout: LayoutDiversity, Seed: 0x60D5},
	)
	for _, cfg := range cells {
		cfg := cfg
		name := deltaConfigName(cfg)
		if len(cfg.Transforms) > 1 {
			name = strings.Replace(name, "cfi-", "full-", 1)
		}
		t.Run(name, func(t *testing.T) {
			if !checkDeltaIdentity(t, cfg, base, edited) {
				t.Fatalf("delta refused a 1-function constant edit")
			}
		})
	}
}

// opaqueTransform is a custom transform the snapshot eligibility check
// cannot reason about.
type opaqueTransform struct{}

func (opaqueTransform) Name() string                   { return "opaque" }
func (opaqueTransform) Apply(*transform.Context) error { return nil }

// TestSnapshotDeclineWarns: a requested capture that is declined —
// under a transform the eligibility check cannot reason about, on
// either ISA — names its reason in a report warning, and a run that did
// not request capture gets no such warning. A ZVM-64 rewrite with a
// built-in stack captures its snapshot and warns nothing. The output
// bytes are the same either way.
func TestSnapshotDeclineWarns(t *testing.T) {
	for _, tc := range []struct {
		name, reason string // reason "" = the snapshot is captured
		cfg          Config
		arch         isa.Arch
	}{
		{"zvm64-null", "", Config{ISA: "zvm64", Transforms: []Transform{Null()}}, isa.ZVM64},
		{"zvm64-custom-transform", "transforms", Config{ISA: "zvm64", Transforms: []Transform{opaqueTransform{}}}, isa.ZVM64},
		{"custom-transform", "transforms", Config{Transforms: []Transform{opaqueTransform{}}}, isa.DefaultArch()},
	} {
		cb, err := cgcsim.CBArch(0, tc.arch)
		if err != nil {
			t.Fatal(err)
		}
		image, err := cb.Bin.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		outs := map[bool][]byte{}
		for _, capture := range []bool{false, true} {
			cfg := tc.cfg
			cfg.CaptureSnapshot = capture
			out, rep, err := Rewrite(image, cfg)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			outs[capture] = out
			declined := 0
			for _, w := range rep.Warnings {
				if strings.HasPrefix(w, "snapshot capture declined") {
					declined++
					if !strings.Contains(w, "("+tc.reason+")") {
						t.Errorf("%s: warning %q does not name reason %q", tc.name, w, tc.reason)
					}
				}
			}
			want, captured := 0, capture && tc.reason == ""
			if capture && tc.reason != "" {
				want = 1
			}
			if declined != want || (rep.Snapshot != nil) != captured {
				t.Errorf("%s capture=%v: %d decline warnings (want %d), snapshot %v (want %v)",
					tc.name, capture, declined, want, rep.Snapshot != nil, captured)
			}
		}
		if !bytes.Equal(outs[false], outs[true]) {
			t.Errorf("%s: the declined capture changed the output bytes", tc.name)
		}
	}
}

// TestSnapshotSkipReasonsCounted: an ineligible CaptureSnapshot rewrite
// leaves Report.Snapshot nil and names why through exactly one
// rewrite.snapshot.skipped.<reason> trace counter; an eligible rewrite,
// on either ISA, captures a snapshot and counts no reason (nor the
// retired "isa" reason).
func TestSnapshotSkipReasonsCounted(t *testing.T) {
	cb32, err := cgcsim.CBArch(0, isa.DefaultArch())
	if err != nil {
		t.Fatal(err)
	}
	cb64, err := cgcsim.CBArch(0, isa.ZVM64)
	if err != nil {
		t.Fatal(err)
	}
	optimized := func(*ir.Program) core.Placer { return layout.Optimized{} }
	cases := []struct {
		name   string
		bin    *binfmt.Binary
		cfg    Config
		placer func(*ir.Program) core.Placer
		want   string // skip reason; "" = snapshot captured
	}{
		{"zvm32-null", cb32.Bin, Config{Transforms: []Transform{Null()}}, nil, ""},
		{"zvm64-null", cb64.Bin, Config{ISA: "zvm64", Transforms: []Transform{Null()}}, nil, ""},
		{"placer-hook", cb32.Bin, Config{}, optimized, "placer"},
		{"zvm64-placer-hook", cb64.Bin, Config{ISA: "zvm64"}, optimized, "placer"},
		{"custom-transform", cb32.Bin, Config{Transforms: []Transform{opaqueTransform{}}}, nil, "transforms"},
	}
	for _, tc := range cases {
		tr := NewTrace()
		tc.cfg.Trace = tr
		tc.cfg.CaptureSnapshot = true
		_, rep, err := rewriteBinaryPlacer(tc.bin.Clone(), tc.cfg, tc.placer)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if (rep.Snapshot != nil) != (tc.want == "") {
			t.Errorf("%s: snapshot captured = %v, want %v", tc.name, rep.Snapshot != nil, tc.want == "")
		}
		for _, reason := range []string{"isa", "placer", "chaos", "transforms", "build-error"} {
			want := int64(0)
			if reason == tc.want {
				want = 1
			}
			if got := tr.Counter("rewrite.snapshot.skipped." + reason); got != want {
				t.Errorf("%s: rewrite.snapshot.skipped.%s = %d, want %d", tc.name, reason, got, want)
			}
		}
	}
}

// TestOnlyRewriteCapturesSnapshots: under CaptureSnapshot, RewriteBinary
// returns no snapshot (it has no serialized images to record), and
// Rewrite returns a complete one that verifies.
func TestOnlyRewriteCapturesSnapshots(t *testing.T) {
	cb, err := cgcsim.CBArch(3, isa.DefaultArch())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Transforms: []Transform{CFI()}, CaptureSnapshot: true}
	_, rep, err := RewriteBinary(cb.Bin.Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Snapshot != nil {
		t.Fatal("RewriteBinary returned a snapshot")
	}
	image, err := cb.Bin.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err = Rewrite(image, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Snapshot == nil {
		t.Fatal("Rewrite captured no snapshot")
	}
	if err := rep.Snapshot.Verify(); err != nil {
		t.Fatalf("Rewrite's snapshot does not verify: %v", err)
	}
}

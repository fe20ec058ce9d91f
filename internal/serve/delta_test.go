package serve

// Delta-serving tests: the snapshot ancestry answers edited inputs
// byte-identically to the pipeline (outcome "delta"), stale snapshots
// degrade to full rewrites (never a divergent binary), output-cache
// eviction does not destroy delta ancestry (separate byte budgets).
// Ancestry across Server instances rides the disk tier
// (TestDiskTierSnapshotSpill).

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"zipr"
	"zipr/internal/asm"
	"zipr/internal/fault"
	"zipr/internal/isa"
	"zipr/internal/obs"
	"zipr/internal/synth"
)

// deltaProfile is handwritten-free so every function unit is
// delta-eligible (embedded in-text data would overlap fixed ranges).
func deltaProfile() (int64, synth.Profile) {
	return 0xDE17A, synth.Profile{
		Name: "svd", NumFuncs: 12, OpsMin: 4, OpsMax: 10,
		DataWords: 32, InputLen: 4, LoopIters: 3,
	}
}

// deltaImages returns the base image and edited variants (1-function
// constant edits under distinct mutation seeds) of deltaProfile.
func deltaImages(t *testing.T, edits int) (base []byte, edited [][]byte) {
	_, prof := deltaProfile()
	return familyImages(t, isa.ZVM32, prof.NumFuncs, edits)
}

// familyImages is deltaImages for deltaProfile resized to numFuncs
// functions and built for arch.
func familyImages(t *testing.T, arch isa.Arch, numFuncs, edits int) (base []byte, edited [][]byte) {
	t.Helper()
	seed, prof := deltaProfile()
	prof.NumFuncs = numFuncs
	src := synth.GenerateArch(seed, prof, arch)
	build := func(s string) []byte {
		bin, err := asm.AssembleArch(s, arch)
		if err != nil {
			t.Fatalf("assemble: %v", err)
		}
		img, err := bin.Marshal()
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return img
	}
	base = build(src)
	seen := map[string]bool{src: true}
	for ms := int64(0); len(edited) < edits; ms++ {
		msrc, n := synth.MutateConsts(src, 0x70AD+ms, 1)
		if n != 1 || seen[msrc] {
			continue
		}
		seen[msrc] = true
		edited = append(edited, build(msrc))
	}
	return base, edited
}

func TestDeltaAnswersEditedInput(t *testing.T) {
	base, edited := deltaImages(t, 2)
	cfg := nullCfg()
	s := New(Options{Workers: 2})
	defer s.Close()
	ctx := context.Background()

	if _, _, meta, err := s.RewriteMeta(ctx, base, cfg); err != nil || meta.Outcome != OutcomeMiss {
		t.Fatalf("base: outcome %s err %v", meta.Outcome, err)
	}
	for i, ed := range edited {
		out, rep, meta, err := s.RewriteMeta(ctx, ed, cfg)
		if err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
		if meta.Outcome != OutcomeDelta {
			t.Fatalf("edit %d: outcome %s, want delta", i, meta.Outcome)
		}
		want, wantRep, err := zipr.Rewrite(ed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, want) {
			t.Fatalf("edit %d: delta answer diverges from pipeline output", i)
		}
		if rep.Stats != wantRep.Stats || rep.Layout != wantRep.Layout {
			t.Fatalf("edit %d: delta report diverges: %+v vs %+v", i, rep.Stats, wantRep.Stats)
		}
		// The delta answer lands in the output cache: an exact repeat is
		// a plain hit.
		if _, _, meta, err := s.RewriteMeta(ctx, ed, cfg); err != nil || meta.Outcome != OutcomeHit {
			t.Fatalf("edit %d repeat: outcome %s err %v", i, meta.Outcome, err)
		}
	}
	st := s.Stats()
	if st.DeltaHits != int64(len(edited)) {
		t.Fatalf("DeltaHits = %d, want %d", st.DeltaHits, len(edited))
	}
	if st.PipelineRuns != 1 {
		t.Fatalf("PipelineRuns = %d, want 1 (delta answers must not run the pipeline)", st.PipelineRuns)
	}
	if st.SnapEntries == 0 || st.SnapBytes == 0 {
		t.Fatalf("snapshot store empty after delta serving: %+v", st)
	}
}

// TestDeltaChainOfEdits: each delta answer is rebased into a new
// ancestor, so an edit of the edit still takes the delta path. Every
// step stores a snapshot under the same ancestor index entry, so the
// chain also runs past snapCandidates: a snapshot pushed off the
// candidate list must leave the store.
func TestDeltaChainOfEdits(t *testing.T) {
	seed, prof := deltaProfile()
	src := synth.Generate(seed, prof)
	cfg := nullCfg()
	s := New(Options{Workers: 2})
	defer s.Close()
	ctx := context.Background()

	cur := src
	for step := 0; step < snapCandidates+2; step++ {
		bin, err := asm.Assemble(cur)
		if err != nil {
			t.Fatal(err)
		}
		img, err := bin.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		_, _, meta, err := s.RewriteMeta(ctx, img, cfg)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		want := OutcomeDelta
		if step == 0 {
			want = OutcomeMiss
		}
		if meta.Outcome != want {
			t.Fatalf("step %d: outcome %s, want %s", step, meta.Outcome, want)
		}
		next, n := synth.MutateConsts(cur, int64(0xC4A1+step), 1)
		if n != 1 {
			t.Fatalf("step %d: no mutable function", step)
		}
		cur = next
	}
	st := s.Stats()
	if st.SnapEntries > snapCandidates || st.SnapAncestors != 1 {
		t.Fatalf("snapshot store holds %d snapshots under %d ancestors, want at most %d under 1",
			st.SnapEntries, st.SnapAncestors, snapCandidates)
	}
	if st.SnapEvictions != 2 {
		t.Fatalf("SnapEvictions = %d, want 2 (%d snapshots stored, %d kept)", st.SnapEvictions, snapCandidates+2, snapCandidates)
	}
}

// TestDeltaStaleSnapshotDegrades is the chaos contract for the new
// fault kind: a snapshot whose digests mismatch must be detected,
// dropped, and the request must degrade to a full rewrite whose bytes
// match the pipeline — never a divergent binary.
func TestDeltaStaleSnapshotDegrades(t *testing.T) {
	base, edited := deltaImages(t, 12)
	cfg := nullCfg()
	cfg.Chaos = fault.NewArmed(7, fault.DeltaStaleSnapshot)
	s := New(Options{Workers: 2, Chaos: cfg.Chaos})
	defer s.Close()
	ctx := context.Background()

	if _, _, meta, err := s.RewriteMeta(ctx, base, cfg); err != nil || meta.Outcome != OutcomeMiss {
		t.Fatalf("base: outcome %s err %v", meta.Outcome, err)
	}
	cleanCfg := nullCfg()
	sawStale := false
	for i, ed := range edited {
		out, _, meta, err := s.RewriteMeta(ctx, ed, cfg)
		if err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
		if meta.Outcome != OutcomeDelta && meta.Outcome != OutcomeMiss {
			t.Fatalf("edit %d: outcome %s", i, meta.Outcome)
		}
		// Identity must hold under BOTH outcomes. The injector only
		// perturbs the serve layer, so the pipeline's own output (run
		// without chaos) is the reference.
		want, _, err := zipr.Rewrite(ed, cleanCfg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, want) {
			t.Fatalf("edit %d (outcome %s): served bytes diverge", i, meta.Outcome)
		}
		if s.Stats().DeltaStale > 0 {
			sawStale = true
		}
	}
	if !sawStale {
		t.Fatal("fault never fired: DeltaStale stayed 0 over every edit (adjust seeds)")
	}
}

// TestEvictionThenDelta is the separate-budget satellite: flushing the
// output cache with unrelated large entries must not destroy delta
// ancestry — the next edited request still takes the delta path.
func TestEvictionThenDelta(t *testing.T) {
	base, edited := deltaImages(t, 1)
	cfg := nullCfg()
	// Output budget fits roughly one rewrite; snapshots get plenty.
	s := New(Options{Workers: 2, CacheBytes: 4 << 10, SnapshotBytes: 64 << 20})
	defer s.Close()
	ctx := context.Background()

	if _, _, meta, err := s.RewriteMeta(ctx, base, cfg); err != nil || meta.Outcome != OutcomeMiss {
		t.Fatalf("base: outcome %s err %v", meta.Outcome, err)
	}
	// Unrelated traffic: rewrite the shared test images until base's
	// output entry is evicted.
	for i, img := range testImages(t) {
		if _, _, err := s.Rewrite(ctx, img, cfg); err != nil {
			t.Fatalf("filler %d: %v", i, err)
		}
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatalf("filler traffic evicted nothing (budget too large for the test): %+v", st)
	}
	if _, _, meta, err := s.RewriteMeta(ctx, base, cfg); err != nil || meta.Outcome == OutcomeHit {
		t.Fatalf("base should have been evicted from the output cache: outcome %s err %v", meta.Outcome, err)
	}
	out, _, meta, err := s.RewriteMeta(ctx, edited[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Outcome != OutcomeDelta {
		t.Fatalf("after output eviction: outcome %s, want delta (ancestry must survive)", meta.Outcome)
	}
	want, _, err := zipr.Rewrite(edited[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want) {
		t.Fatal("delta answer diverges after eviction")
	}
}

// TestSnapshotBudgetEviction: the snapshot store obeys its own budget.
func TestSnapshotBudgetEviction(t *testing.T) {
	base, edited := deltaImages(t, 1)
	cfg := nullCfg()
	// A budget too small for any snapshot disables ancestry silently.
	s := New(Options{Workers: 2, SnapshotBytes: 1 << 10})
	defer s.Close()
	ctx := context.Background()
	if _, _, _, err := s.RewriteMeta(ctx, base, cfg); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.SnapEntries != 0 {
		t.Fatalf("oversized snapshot was stored: %+v", st)
	}
	if _, _, meta, err := s.RewriteMeta(ctx, edited[0], cfg); err != nil || meta.Outcome != OutcomeMiss {
		t.Fatalf("edit without ancestry: outcome %s err %v", meta.Outcome, err)
	}
	// Negative budget disables the path entirely.
	s2 := New(Options{Workers: 2, SnapshotBytes: -1})
	defer s2.Close()
	if _, _, _, err := s2.RewriteMeta(ctx, base, cfg); err != nil {
		t.Fatal(err)
	}
	if _, _, meta, err := s2.RewriteMeta(ctx, edited[0], cfg); err != nil || meta.Outcome != OutcomeMiss {
		t.Fatalf("delta disabled: outcome %s err %v", meta.Outcome, err)
	}
}

// TestDeltaDisabledUnderPipelineChaos: an injector with pipeline kinds
// armed voids the snapshot determinism argument, so the delta path must
// not engage at all.
func TestDeltaDisabledUnderPipelineChaos(t *testing.T) {
	base, edited := deltaImages(t, 1)
	cfg := nullCfg()
	cfg.Chaos = fault.NewArmed(11, fault.DisasmDisagree)
	s := New(Options{Workers: 2})
	defer s.Close()
	ctx := context.Background()
	if _, _, _, err := s.RewriteMeta(ctx, base, cfg); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.SnapEntries != 0 {
		t.Fatalf("snapshot captured under pipeline chaos: %+v", st)
	}
	if _, _, meta, err := s.RewriteMeta(ctx, edited[0], cfg); err != nil || meta.Outcome != OutcomeMiss {
		t.Fatalf("edit under pipeline chaos: outcome %s err %v", meta.Outcome, err)
	}
}

// TestDeltaOutcomeInMetrics: the new outcome label is registered
// eagerly, so a scrape sees serve_request_total{outcome="delta"} even
// before the first delta answer, and counts it afterwards.
func TestDeltaOutcomeInMetrics(t *testing.T) {
	base, edited := deltaImages(t, 1)
	cfg := nullCfg()
	reg := obs.NewRegistry()
	s := New(Options{Workers: 2, Registry: reg})
	defer s.Close()
	ctx := context.Background()

	found := func() (f obs.FamilySnap, ok bool) {
		for _, fam := range reg.Snapshot() {
			if fam.Name == "serve.request.total" {
				return fam, true
			}
		}
		return f, false
	}
	fam, ok := found()
	if !ok {
		t.Fatal("serve.request.total not registered")
	}
	deltaSeries := func(fam obs.FamilySnap) (int64, bool) {
		for _, se := range fam.Series {
			for _, v := range se.Labels {
				if v == OutcomeDelta {
					return se.Value, true
				}
			}
		}
		return 0, false
	}
	if v, ok := deltaSeries(fam); !ok || v != 0 {
		t.Fatalf("delta series not pre-registered at zero: %v %v", v, ok)
	}
	if _, _, _, err := s.RewriteMeta(ctx, base, cfg); err != nil {
		t.Fatal(err)
	}
	if _, _, meta, err := s.RewriteMeta(ctx, edited[0], cfg); err != nil || meta.Outcome != OutcomeDelta {
		t.Fatalf("outcome %s err %v", meta.Outcome, err)
	}
	fam, _ = found()
	if v, _ := deltaSeries(fam); v != 1 {
		t.Fatalf("serve.request.total{outcome=delta} = %d, want 1", v)
	}
	// And the Prometheus exposition renders it.
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `outcome="delta"`) {
		t.Fatalf("exposition lacks the delta outcome:\n%s", firstLines(buf.String(), 20))
	}
}

func firstLines(s string, n int) string {
	lines := strings.Split(s, "\n")
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}

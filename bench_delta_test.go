package zipr_test

// Delta-rewriting benchmarks (ISSUE 7 perf bar): BenchmarkRewriteDelta
// applies a placement snapshot to a >100k-instruction input with a
// 1-function edit and reports speedup-x against the cold full rewrite
// measured in the same process; BenchmarkRewriteDeltaCold is the
// denominator as its own BENCH_pipeline.json entry, so `make ci` can
// gate the ratio with benchjson -compare. BenchmarkServeDeltaHit
// measures the served path (ancestor lookup + apply + rebase) end to
// end.

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"zipr"
	"zipr/internal/asm"
	"zipr/internal/serve"
	"zipr/internal/synth"
)

// deltaStressProfile is the >100k-instruction delta benchmark input:
// big enough that a full rewrite pays real placement cost, and
// handwritten-free so the single edited function is delta-eligible.
func deltaStressProfile() (int64, synth.Profile) {
	return 0xDE15A, synth.Profile{
		Name: "dstress", NumFuncs: 12000, OpsMin: 5, OpsMax: 12,
		FuncPtrTableFrac: 0.3, DataWords: 2048, InputLen: 8, LoopIters: 4,
	}
}

var deltaStress struct {
	once         sync.Once
	base, edited []byte
	err          error
}

// deltaStressPair generates (once) the stress input and its 1-function
// constant edit.
func deltaStressPair(b *testing.B) (base, edited []byte) {
	b.Helper()
	deltaStress.once.Do(func() {
		seed, prof := deltaStressProfile()
		src := synth.Generate(seed, prof)
		msrc, n := synth.MutateConsts(src, 0xBE57, 1)
		if n != 1 {
			b.Fatal("stress profile has no mutable function")
		}
		for _, s := range []struct {
			src string
			dst *[]byte
		}{{src, &deltaStress.base}, {msrc, &deltaStress.edited}} {
			bin, err := asm.Assemble(s.src)
			if err != nil {
				deltaStress.err = err
				return
			}
			if *s.dst, err = bin.Marshal(); err != nil {
				deltaStress.err = err
				return
			}
		}
	})
	if deltaStress.err != nil {
		b.Fatal(deltaStress.err)
	}
	return deltaStress.base, deltaStress.edited
}

// BenchmarkRewriteDeltaCold is the from-scratch rewrite of the edited
// stress input: the denominator of the delta speedup, kept as its own
// entry so benchjson -compare can gate the ratio across runs.
func BenchmarkRewriteDeltaCold(b *testing.B) {
	_, edited := deltaStressPair(b)
	b.SetBytes(int64(len(edited)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := zipr.Rewrite(edited, zipr.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRewriteDelta measures snapshot application: the ancestor's
// placement snapshot answers the 1-function edit. speedup-x is the
// in-process cold full rewrite over the per-iteration delta apply
// (acceptance floor: 5x).
func BenchmarkRewriteDelta(b *testing.B) {
	base, edited := deltaStressPair(b)
	_, rep, err := zipr.Rewrite(base, zipr.Config{CaptureSnapshot: true})
	if err != nil {
		b.Fatal(err)
	}
	if rep.Snapshot == nil {
		b.Fatal("no snapshot captured for the stress input")
	}
	snap := rep.Snapshot

	start := time.Now()
	want, _, err := zipr.Rewrite(edited, zipr.Config{})
	coldNS := float64(time.Since(start).Nanoseconds())
	if err != nil {
		b.Fatal(err)
	}
	got, info, err := snap.Apply(edited)
	if err != nil {
		b.Fatalf("delta refused the stress edit: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		b.Fatal("delta output diverges from the from-scratch rewrite")
	}
	if info.InstsChanged == 0 {
		b.Fatal("delta patched nothing")
	}

	b.SetBytes(int64(len(edited)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := snap.Apply(edited); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	perIter := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	if perIter > 0 {
		b.ReportMetric(coldNS/perIter, "speedup-x")
	}
}

// BenchmarkServeDeltaHit measures the served delta path end to end:
// ancestor candidate lookup, snapshot apply, rebase, and response copy.
// The output cache is disabled so every iteration exercises the delta
// machinery rather than degenerating into plain hits; the two edited
// variants alternate to keep the rebase path honest. speedup-x is the
// cold served miss over the per-iteration delta answer.
func BenchmarkServeDeltaHit(b *testing.B) {
	seed, prof := deltaStressProfile()
	src := synth.Generate(seed, prof)
	images := make([][]byte, 0, 3)
	variants := []string{src}
	for ms := int64(0); len(variants) < 3; ms++ {
		msrc, n := synth.MutateConsts(src, 0x5D17+ms, 1)
		if n != 1 {
			b.Fatal("no mutable function")
		}
		variants = append(variants, msrc)
	}
	for _, s := range variants {
		bin, err := asm.Assemble(s)
		if err != nil {
			b.Fatal(err)
		}
		img, err := bin.Marshal()
		if err != nil {
			b.Fatal(err)
		}
		images = append(images, img)
	}
	s := serve.New(serve.Options{Workers: 1, CacheBytes: -1})
	defer s.Close()
	cfg := zipr.Config{}
	ctx := context.Background()

	start := time.Now()
	_, _, meta, err := s.RewriteMeta(ctx, images[0], cfg)
	coldNS := float64(time.Since(start).Nanoseconds())
	if err != nil || meta.Outcome != serve.OutcomeMiss {
		b.Fatalf("prime: outcome %s err %v", meta.Outcome, err)
	}

	b.SetBytes(int64(len(images[0])))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, meta, err := s.RewriteMeta(ctx, images[1+i%2], cfg)
		if err != nil {
			b.Fatal(err)
		}
		if meta.Outcome != serve.OutcomeDelta {
			b.Fatalf("iteration %d: outcome %s, want delta", i, meta.Outcome)
		}
	}
	b.StopTimer()
	perIter := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	if perIter > 0 {
		b.ReportMetric(coldNS/perIter, "speedup-x")
	}
}

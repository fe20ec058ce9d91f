package zipr

// Benchmark harness: one bench per table/figure of the paper's
// evaluation (see DESIGN.md's experiment index), plus microbenchmarks of
// the pipeline stages. The figure benches rewrite and execute a corpus
// sample and report the paper's metrics via b.ReportMetric:
//
//	go test -bench=Fig -benchmem            # Figures 4-7
//	go test -bench=Robustness               # §IV-A table
//	go test -bench=Ablate                   # DESIGN.md ablations A1-A3
//	go test -bench=. -benchmem              # everything
//
// cmd/cgc-eval regenerates the full-corpus figures; the benches use a
// fixed sample so they finish in seconds per iteration.

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"zipr/internal/asm"
	"zipr/internal/binfmt"
	"zipr/internal/cfg"
	"zipr/internal/cgcsim"
	"zipr/internal/core"
	"zipr/internal/disasm"
	"zipr/internal/infer"
	"zipr/internal/isa"
	layoutpkg "zipr/internal/layout"
	"zipr/internal/loader"
	"zipr/internal/obs"
	"zipr/internal/synth"
	"zipr/internal/transform"
	"zipr/internal/vm"
)

// benchCorpusSize is the corpus sample used by the figure benches.
const benchCorpusSize = 6

var (
	benchOnce   sync.Once
	benchCorpus []cgcsim.CB
	benchErr    error
)

func corpusSample(b *testing.B) []cgcsim.CB {
	b.Helper()
	benchOnce.Do(func() {
		benchCorpus, benchErr = cgcsim.Corpus(benchCorpusSize, nil)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchCorpus
}

func rewriteFunc(layout LayoutKind, tfs ...Transform) cgcsim.RewriteFunc {
	return func(bin *binfmt.Binary) (*binfmt.Binary, error) {
		out, _, err := RewriteBinary(bin, Config{Transforms: tfs, Layout: layout})
		return out, err
	}
}

// evalAndReport runs one configuration over the sample and reports the
// three CGC metrics as custom benchmark units.
func evalAndReport(b *testing.B, prefix string, fn cgcsim.RewriteFunc) {
	b.Helper()
	cbs := corpusSample(b)
	var last cgcsim.Summary
	for i := 0; i < b.N; i++ {
		rows, err := cgcsim.EvaluateParallel(cbs, fn, 0)
		if err != nil {
			b.Fatal(err)
		}
		last = cgcsim.Summarize(rows)
		if last.Functional != last.Total {
			b.Fatalf("%s: only %d/%d functional", prefix, last.Functional, last.Total)
		}
	}
	b.ReportMetric(last.AvgFile, prefix+"-file-%")
	b.ReportMetric(last.AvgExec, prefix+"-cpu-%")
	b.ReportMetric(last.AvgMem, prefix+"-mem-%")
}

// BenchmarkFig4Filesize regenerates the Figure-4 metric (file-size
// overhead) for the baseline configuration.
func BenchmarkFig4Filesize(b *testing.B) {
	evalAndReport(b, "zipr", rewriteFunc(LayoutOptimized, Null()))
}

// BenchmarkFig5Execution regenerates the Figure-5 metric (execution
// overhead) for the CFI configuration, whose shift out of the <5% bin is
// the figure's point.
func BenchmarkFig5Execution(b *testing.B) {
	evalAndReport(b, "zipr+cfi", rewriteFunc(LayoutOptimized, CFI()))
}

// BenchmarkFig6Memory regenerates the Figure-6 metric (MaxRSS overhead)
// including the engineered pathological binary.
func BenchmarkFig6Memory(b *testing.B) {
	cbs := corpusSample(b)
	seed, profile := synth.CBProfile(synth.PathologicalCB)
	patho, err := synth.Build(seed, profile)
	if err != nil {
		b.Fatal(err)
	}
	pathoCB := cgcsim.CB{Name: profile.Name, Bin: patho, Pollers: cbs[0].Pollers}
	all := append(append([]cgcsim.CB(nil), cbs...), pathoCB)
	var worst float64
	for i := 0; i < b.N; i++ {
		rows, err := cgcsim.EvaluateParallel(all, rewriteFunc(LayoutOptimized, CFI()), 0)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, r := range rows {
			if r.Overheads.Mem > worst {
				worst = r.Overheads.Mem
			}
		}
	}
	b.ReportMetric(worst, "outlier-mem-%")
}

// BenchmarkFig7Averages regenerates the Figure-7 averages for both
// configurations side by side.
func BenchmarkFig7Averages(b *testing.B) {
	b.Run("zipr", func(b *testing.B) {
		evalAndReport(b, "zipr", rewriteFunc(LayoutOptimized, Null()))
	})
	b.Run("cfi", func(b *testing.B) {
		evalAndReport(b, "zipr+cfi", rewriteFunc(LayoutOptimized, CFI()))
	})
}

// robustnessBench measures Null-transform rewrite throughput on a scaled
// §IV-A artifact (the table's "time to transform" column) and verifies
// output-transcript parity.
func robustnessBench(b *testing.B, seed int64, profile synth.Profile) {
	lib, err := synth.Build(seed, profile)
	if err != nil {
		b.Fatal(err)
	}
	drv, err := synth.Build(seed+1, synth.TestDriverProfile(profile.LibName, []int{0, 3}))
	if err != nil {
		b.Fatal(err)
	}
	size := lib.FileSize()
	b.SetBytes(int64(size))
	b.ResetTimer()
	var rlib *binfmt.Binary
	for i := 0; i < b.N; i++ {
		rlib, _, err = RewriteBinary(lib.Clone(), Config{Transforms: []Transform{Null()}})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	input := []byte("benchmark-parity")
	want := runBench(b, drv, map[string]*binfmt.Binary{profile.LibName: lib}, input)
	got := runBench(b, drv, map[string]*binfmt.Binary{profile.LibName: rlib}, input)
	if want.ExitCode != got.ExitCode || !bytes.Equal(want.Output, got.Output) {
		b.Fatal("rewritten library is not behaviorally equivalent")
	}
}

func runBench(b *testing.B, bin *binfmt.Binary, libs map[string]*binfmt.Binary, input []byte) vm.Result {
	b.Helper()
	m := vm.New(vm.WithStdin(bytes.NewReader(input)), vm.WithMaxSteps(100_000_000))
	if err := loader.Load(m, bin, libs); err != nil {
		b.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkRobustnessLibc rewrites the libc analogue (§IV-A a).
func BenchmarkRobustnessLibc(b *testing.B) {
	robustnessBench(b, 11, synth.LibcProfile(0.05))
}

// BenchmarkRobustnessJVM rewrites the libjvm analogue (§IV-A b).
func BenchmarkRobustnessJVM(b *testing.B) {
	robustnessBench(b, 12, synth.JVMProfile(0.02))
}

// BenchmarkRobustnessApache rewrites the Apache analogue's main
// executable (§IV-A c).
func BenchmarkRobustnessApache(b *testing.B) {
	exeP, _ := synth.ApacheProfiles(0.1)
	exe, err := synth.Build(299, exeP)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(exe.FileSize()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := RewriteBinary(exe.Clone(), Config{Transforms: []Transform{Null()}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblatePinning compares heuristic pinning against the naive
// block-pinning baseline (experiment A1), reporting the file-size gap.
func BenchmarkAblatePinning(b *testing.B) {
	cbs := corpusSample(b)
	var heur, naive cgcsim.Summary
	for i := 0; i < b.N; i++ {
		rows, err := cgcsim.EvaluateParallel(cbs, rewriteFunc(LayoutOptimized, Null()), 0)
		if err != nil {
			b.Fatal(err)
		}
		heur = cgcsim.Summarize(rows)
		rows, err = cgcsim.EvaluateParallel(cbs, rewriteFunc(LayoutOptimized, PinBlocks(), Null()), 0)
		if err != nil {
			b.Fatal(err)
		}
		naive = cgcsim.Summarize(rows)
	}
	b.ReportMetric(heur.AvgFile, "heuristic-file-%")
	b.ReportMetric(naive.AvgFile, "naive-file-%")
}

// BenchmarkAblateLayout compares the optimized and diversity layouts
// (experiment A2), reporting their memory overheads.
func BenchmarkAblateLayout(b *testing.B) {
	cbs := corpusSample(b)
	var opt, div cgcsim.Summary
	for i := 0; i < b.N; i++ {
		rows, err := cgcsim.EvaluateParallel(cbs, rewriteFunc(LayoutOptimized, Null()), 0)
		if err != nil {
			b.Fatal(err)
		}
		opt = cgcsim.Summarize(rows)
		rows, err = cgcsim.EvaluateParallel(cbs, rewriteFunc(LayoutDiversity, Null()), 0)
		if err != nil {
			b.Fatal(err)
		}
		div = cgcsim.Summarize(rows)
	}
	b.ReportMetric(opt.AvgMem, "optimized-mem-%")
	b.ReportMetric(div.AvgMem, "diversity-mem-%")
	b.ReportMetric(opt.AvgFile, "optimized-file-%")
	b.ReportMetric(div.AvgFile, "diversity-file-%")
}

// sledBenchSrc builds the dense-reference program of experiment A3.
const sledBenchSrc = `
.text 0x00100000
.entry main
t0: ret
t1: ret
t2: ret
t3: ret
main:
    movi r4, 0
    movi r5, tab
    load r5, [r5]
    movi r7, 500
lp: callr r5
    dec r7
    jnz lp
    movi r0, 1
    movi r1, 0
    syscall
.data 0x00200000
tab: .word t0, t1, t2, t3
`

// BenchmarkAblateSleds measures dispatch cost through a sled (experiment
// A3): instructions retired per indirect transfer, before and after.
func BenchmarkAblateSleds(b *testing.B) {
	bin, err := asm.Assemble(sledBenchSrc)
	if err != nil {
		b.Fatal(err)
	}
	rw, report, err := RewriteBinary(bin.Clone(), Config{Transforms: []Transform{Null()}})
	if err != nil {
		b.Fatal(err)
	}
	if report.Stats.Sleds == 0 {
		b.Fatal("expected a sled")
	}
	var before, after vm.Result
	for i := 0; i < b.N; i++ {
		before = runBench(b, bin, nil, nil)
		after = runBench(b, rw, nil, nil)
	}
	b.ReportMetric(float64(before.Steps), "orig-steps")
	b.ReportMetric(float64(after.Steps), "sled-steps")
}

// BenchmarkAblatePGO measures the profile-guided layout's hot-path
// MaxRSS win on the error-path-heavy workload (experiment A4).
func BenchmarkAblatePGO(b *testing.B) {
	profile := synth.Profile{
		Name: "pgobench", NumFuncs: 20, OpsMin: 6, OpsMax: 20, LoopIters: 16,
		ColdFuncs: 100, DirectCallAll: true, HeapPages: 1, InputLen: 32,
	}
	orig, err := synth.Build(21, profile)
	if err != nil {
		b.Fatal(err)
	}
	training := bytes.Repeat([]byte{0x42}, profile.InputLen)
	prof := NewProfiler()
	instrumented, _, err := RewriteBinary(orig.Clone(), Config{Transforms: []Transform{prof}})
	if err != nil {
		b.Fatal(err)
	}
	m := vm.New(vm.WithStdin(bytes.NewReader(training)), vm.WithMaxSteps(200_000_000))
	if err := loader.Load(m, instrumented, nil); err != nil {
		b.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		b.Fatal(err)
	}
	var hot []uint32
	for entry, ctr := range prof.Counters {
		raw, err := m.ReadMem(ctr, 4)
		if err != nil {
			b.Fatal(err)
		}
		if raw[0]|raw[1]|raw[2]|raw[3] != 0 {
			hot = append(hot, entry)
		}
	}
	var basePages, pgoPages int
	for i := 0; i < b.N; i++ {
		pgo, _, err := RewriteBinary(orig.Clone(), Config{
			Layout: LayoutProfileGuided, HotFuncs: hot,
		})
		if err != nil {
			b.Fatal(err)
		}
		base := runBench(b, orig, nil, training)
		fast := runBench(b, pgo, nil, training)
		basePages, pgoPages = base.PagesTouched, fast.PagesTouched
	}
	b.ReportMetric(float64(basePages), "orig-pages")
	b.ReportMetric(float64(pgoPages), "pgo-pages")
}

// ---------------------------------------------------------------- micro

// BenchmarkRewriteNull measures end-to-end rewrite throughput on a
// mid-size challenge binary.
func BenchmarkRewriteNull(b *testing.B) {
	seed, profile := synth.CBProfile(10)
	bin, err := synth.Build(seed, profile)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(bin.FileSize()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := RewriteBinary(bin.Clone(), Config{Transforms: []Transform{Null()}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRewriteNoTrace guards the nil-trace contract: run with
// -benchmem and compare against BenchmarkRewriteTraced — a disabled
// trace must add zero allocations per rewrite over the untraced
// pipeline (the instrumentation stays compiled in unconditionally).
func BenchmarkRewriteNoTrace(b *testing.B) {
	seed, profile := synth.CBProfile(10)
	bin, err := synth.Build(seed, profile)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := RewriteBinary(bin.Clone(), Config{Transforms: []Transform{Null()}, Trace: nil}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRewriteNoTraceLabeled extends the nil-trace guard to the
// labeled registry: handles resolved from a nil *obs.Registry are
// bumped on every iteration alongside the untraced rewrite, and
// allocs/op must match BenchmarkRewriteNoTrace (within the pipeline's
// few-allocs run-to-run drift) — disabled labeled metrics add zero
// allocations, like a disabled trace. The strict zero-alloc contract
// itself is pinned by TestNilRegistryZeroAlloc.
func BenchmarkRewriteNoTraceLabeled(b *testing.B) {
	seed, profile := synth.CBProfile(10)
	bin, err := synth.Build(seed, profile)
	if err != nil {
		b.Fatal(err)
	}
	var reg *obs.Registry
	total := reg.Counter("serve.request.total", "requests", "outcome").With("miss")
	latency := reg.Window("serve.request.latency", "wall", 0, "outcome").With("miss")
	depth := reg.Gauge("serve.queue.depth", "waiting").With()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := RewriteBinary(bin.Clone(), Config{Transforms: []Transform{Null()}, Trace: nil}); err != nil {
			b.Fatal(err)
		}
		total.Add(1)
		latency.Observe(int64(i))
		depth.Set(int64(i))
	}
}

// BenchmarkRewriteTraced measures the cost of full per-phase tracing
// (spans, counters, histograms; no sink) for comparison against
// BenchmarkRewriteNoTrace.
func BenchmarkRewriteTraced(b *testing.B) {
	seed, profile := synth.CBProfile(10)
	bin, err := synth.Build(seed, profile)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := NewTrace()
		if _, _, err := RewriteBinary(bin.Clone(), Config{Transforms: []Transform{Null()}, Trace: tr}); err != nil {
			b.Fatal(err)
		}
		if err := tr.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRewriteCFI measures end-to-end rewrite throughput with CFI.
func BenchmarkRewriteCFI(b *testing.B) {
	seed, profile := synth.CBProfile(10)
	bin, err := synth.Build(seed, profile)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(bin.FileSize()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := RewriteBinary(bin.Clone(), Config{Transforms: []Transform{CFI()}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDisassemble measures the two-disassembler aggregation stage.
func BenchmarkDisassemble(b *testing.B) {
	seed, profile := synth.CBProfile(10)
	bin, err := synth.Build(seed, profile)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(bin.Text().Data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := disasm.DisassembleOpts(bin, disasm.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDisassembleSerial measures the dual-disassembler stage with
// the two passes forced back-to-back on one goroutine (the -benchmem
// allocs/op baseline for the scratch-pool diet).
func BenchmarkDisassembleSerial(b *testing.B) {
	seed, profile := synth.CBProfile(10)
	bin, err := synth.Build(seed, profile)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(bin.Text().Data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := disasm.DisassembleOpts(bin, disasm.Options{Serial: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDisassembleParallel measures the concurrent dual disassembly
// and reports its speedup over the serial ordering (expect ~1x on one
// core; the gain shows on a multi-core runner).
func BenchmarkDisassembleParallel(b *testing.B) {
	seed, profile := synth.CBProfile(10)
	bin, err := synth.Build(seed, profile)
	if err != nil {
		b.Fatal(err)
	}
	serialRef := benchWall(b, 3, func() {
		if _, err := disasm.DisassembleOpts(bin, disasm.Options{Serial: true}); err != nil {
			b.Fatal(err)
		}
	})
	b.SetBytes(int64(len(bin.Text().Data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := disasm.DisassembleOpts(bin, disasm.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportSpeedup(b, serialRef)
}

// BenchmarkDisassembleLibc measures the whole disassembly stage —
// decode table, both walks, inference and weighted arbitration — on the
// about 1 MB library the large-lib workload rewrites, and reports the
// speedup of the default concurrent mode over Options.Serial: the split
// table fill and inference beside the walks must pay for themselves.
func BenchmarkDisassembleLibc(b *testing.B) {
	bin, err := synth.Build(11, synth.LibcProfile(1.0))
	if err != nil {
		b.Fatal(err)
	}
	run := func(serial bool) {
		if _, err := disasm.DisassembleOpts(bin, disasm.Options{Serial: serial, Arbitration: disasm.ArbWeighted}); err != nil {
			b.Fatal(err)
		}
	}
	serialRef := benchWall(b, 3, func() { run(true) })
	b.SetBytes(int64(len(bin.Text().Data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(false)
	}
	b.StopTimer()
	reportSpeedup(b, serialRef)
}

// inferSink keeps BenchmarkInferLibc's result live.
var inferSink *infer.Result

// BenchmarkInferLibc measures the inference disassembler alone on the
// libc-scale library (about 1 MB of text, of which 234,448 offsets
// decode: the candidates); the decode table is built once outside the
// clock, as disassembly shares it. Its allocs/op pins the bitset fact
// base and the CSR flow relation: a constant count, independent of text
// size. Its B/op is mostly per candidate, since every candidate fact is
// indexed by rank; only the data beliefs are per text byte.
func BenchmarkInferLibc(b *testing.B) {
	bin, err := synth.Build(11, synth.LibcProfile(1.0))
	if err != nil {
		b.Fatal(err)
	}
	text := bin.Text()
	tab := decodeText(nil, text.Data, text.VAddr)
	b.SetBytes(int64(len(text.Data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inferSink = infer.Analyze(bin, tab)
	}
}

// decodeText returns the filled decode table for text at base under
// arch, as disassembly builds it on one goroutine.
func decodeText(arch isa.Arch, text []byte, base uint32) *isa.DecodeTable {
	tab := isa.NewDecodeTable(arch, text, base)
	tab.Fill(0, len(text))
	tab.Index()
	tab.Store(0, len(text))
	return tab
}

// BenchmarkPlaceLargeSynth measures the reassembly stage alone on the
// libc-scale placement-stress workload (≥100k instructions, dense pin
// clusters) and reports the indexed allocator's speedup over the legacy
// slice-scanning placer. Disassembly, CFG and transforms run once
// outside the clock; each iteration is one core.Reassemble, so the
// number under test is placement cost, not pipeline overhead.
func BenchmarkPlaceLargeSynth(b *testing.B) {
	bin, err := synth.Build(77, synth.PlacementStressProfile(1))
	if err != nil {
		b.Fatal(err)
	}
	agg, err := disasm.DisassembleOpts(bin, disasm.Options{})
	if err != nil {
		b.Fatal(err)
	}
	prog, err := cfg.BuildOpts(bin, agg, cfg.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if err := transform.ApplyTraced(prog, nil, transform.Null{}); err != nil {
		b.Fatal(err)
	}
	if len(prog.Insts) < 100_000 {
		b.Fatalf("stress program has only %d instructions, want >= 100k", len(prog.Insts))
	}
	reassemble := func(p core.Placer) *core.Result {
		res, err := core.Reassemble(prog, core.Options{Placer: p})
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	// Reassembly must be repeatable on a shared program for the timing
	// loop to be meaningful.
	if a, c := reassemble(layoutpkg.Optimized{}), reassemble(layoutpkg.Optimized{}); !bytes.Equal(a.Binary.Text().Data, c.Binary.Text().Data) {
		b.Fatal("reassembly of a shared program is not repeatable")
	}
	legacyRef := benchWall(b, 1, func() { reassemble(LegacyOptimized{}) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reassemble(layoutpkg.Optimized{})
	}
	b.StopTimer()
	reportSpeedup(b, legacyRef)
}

// BenchmarkEvalJ1 measures corpus evaluation with one worker (the old
// serial loop).
func BenchmarkEvalJ1(b *testing.B) {
	cbs := corpusSample(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cgcsim.EvaluateParallel(cbs, rewriteFunc(LayoutOptimized, Null()), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvalJN measures corpus evaluation with the GOMAXPROCS worker
// pool and reports its speedup over one worker.
func BenchmarkEvalJN(b *testing.B) {
	cbs := corpusSample(b)
	fn := rewriteFunc(LayoutOptimized, Null())
	serialRef := benchWall(b, 1, func() {
		if _, err := cgcsim.EvaluateParallel(cbs, fn, 1); err != nil {
			b.Fatal(err)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cgcsim.EvaluateParallel(cbs, fn, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportSpeedup(b, serialRef)
}

// benchWall times reps runs of fn outside the benchmark clock and
// returns the per-run wall time, as the serial reference for speedup
// metrics.
func benchWall(b *testing.B, reps int, fn func()) time.Duration {
	b.Helper()
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		fn()
	}
	return time.Since(t0) / time.Duration(reps)
}

// reportSpeedup emits the serial-over-parallel wall-time ratio.
func reportSpeedup(b *testing.B, serialRef time.Duration) {
	b.Helper()
	if per := b.Elapsed() / time.Duration(b.N); per > 0 {
		b.ReportMetric(float64(serialRef)/float64(per), "speedup-x")
	}
}

// BenchmarkAssemble measures the assembler on a generated source.
func BenchmarkAssemble(b *testing.B) {
	seed, profile := synth.CBProfile(10)
	src := synth.Generate(seed, profile)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := asm.Assemble(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVMExecution measures interpreter throughput in
// instructions/op (reported) on a poller run.
func BenchmarkVMExecution(b *testing.B) {
	cbs := corpusSample(b)
	cb := cbs[0]
	var steps uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := runBench(b, cb.Bin, nil, cb.Pollers[0])
		steps = res.Steps
	}
	b.ReportMetric(float64(steps), "instructions")
}

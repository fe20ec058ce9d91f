// Command cgc-eval regenerates the paper's evaluation: the robustness
// experiments of §IV-A (libc / libjvm / Apache analogues), the CGC
// overhead histograms of Figures 4-6, the averages of Figure 7, and the
// design-choice ablations indexed in DESIGN.md.
//
// Usage:
//
//	cgc-eval -experiment all                 # everything below
//	cgc-eval -experiment figs  -n 62         # Figures 4-7
//	cgc-eval -experiment robustness -scale 0.05
//	cgc-eval -experiment ablate-pinning -n 8
//	cgc-eval -experiment ablate-layout  -n 8
//	cgc-eval -experiment ablate-sleds
package main

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"zipr"
	"zipr/internal/asm"
	"zipr/internal/binfmt"
	"zipr/internal/cgcsim"
	"zipr/internal/loader"
	"zipr/internal/obs"
	"zipr/internal/synth"
	"zipr/internal/vm"
)

// phaseAgg, when non-nil, folds a per-rewrite trace from every rewrite
// the experiments perform; the aggregate table prints after the run.
// Agg locks internally, so parallel corpus evaluation can fold into it.
var phaseAgg *obs.Agg

// jobs is the -j worker count used for corpus evaluation.
var jobs int

func main() {
	experiment := flag.String("experiment", "all", "all | figs | fig4 | fig5 | fig6 | fig7 | robustness | ablate-pinning | ablate-layout | ablate-sleds | ablate-pgo")
	n := flag.Int("n", synth.CorpusSize, "number of challenge binaries")
	scale := flag.Float64("scale", 0.02, "robustness workload scale (1.0 = paper-sized artifacts)")
	phaseTimes := flag.Bool("phase-times", false, "trace every rewrite and print per-phase timings aggregated across the corpus")
	flag.IntVar(&jobs, "j", runtime.GOMAXPROCS(0),
		"corpus evaluation workers; results are identical at any count (1 = serial)")
	flag.Parse()

	if *phaseTimes {
		phaseAgg = obs.NewAgg()
	}
	if err := run(*experiment, *n, *scale); err != nil {
		fmt.Fprintln(os.Stderr, "cgc-eval:", err)
		os.Exit(1)
	}
	if phaseAgg != nil && phaseAgg.Runs() > 0 {
		fmt.Printf("## Per-phase timings aggregated over %d rewrites\n", phaseAgg.Runs())
		if err := phaseAgg.WriteTable(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "cgc-eval:", err)
			os.Exit(1)
		}
	}
}

// rewriteBinary is the experiments' single entry point into the
// rewriter; with -phase-times it traces the rewrite and folds the
// result into phaseAgg. Evaluation workers call it concurrently: each
// rewrite gets its own Trace, and phaseAgg.AddTrace locks.
func rewriteBinary(b *binfmt.Binary, cfg zipr.Config) (*binfmt.Binary, *zipr.Report, error) {
	if phaseAgg != nil {
		tr := obs.New()
		cfg.Trace = tr
		defer func() {
			tr.Close()
			phaseAgg.AddTrace(tr)
		}()
	}
	return zipr.RewriteBinary(b, cfg)
}

func run(experiment string, n int, scale float64) error {
	switch experiment {
	case "all":
		if err := runRobustness(scale); err != nil {
			return err
		}
		if err := runFigs(n, "figs"); err != nil {
			return err
		}
		if err := runAblatePinning(min(n, 8)); err != nil {
			return err
		}
		if err := runAblateLayout(min(n, 8)); err != nil {
			return err
		}
		if err := runAblateSleds(); err != nil {
			return err
		}
		return runAblatePGO()
	case "figs", "fig4", "fig5", "fig6", "fig7":
		return runFigs(n, experiment)
	case "robustness":
		return runRobustness(scale)
	case "ablate-pinning":
		return runAblatePinning(min(n, 8))
	case "ablate-layout":
		return runAblateLayout(min(n, 8))
	case "ablate-sleds":
		return runAblateSleds()
	case "ablate-pgo":
		return runAblatePGO()
	}
	return fmt.Errorf("unknown experiment %q", experiment)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// rewriteWith builds a cgcsim.RewriteFunc for a transform set and layout.
func rewriteWith(layoutKind zipr.LayoutKind, tfs ...zipr.Transform) cgcsim.RewriteFunc {
	return func(b *binfmt.Binary) (*binfmt.Binary, error) {
		out, _, err := rewriteBinary(b, zipr.Config{Transforms: tfs, Layout: layoutKind})
		return out, err
	}
}

// ---------------------------------------------------------------- figures

func runFigs(n int, which string) error {
	fmt.Printf("# CGC evaluation: %d challenge binaries, %d pollers each, %d workers\n", n, cgcsim.PollersPerCB, jobs)
	start := time.Now()
	cbs, err := cgcsim.Corpus(n, nil)
	if err != nil {
		return err
	}
	fmt.Printf("# corpus built in %v\n", time.Since(start).Round(time.Millisecond))

	configs := []struct {
		name string
		fn   cgcsim.RewriteFunc
	}{
		{"zipr", rewriteWith(zipr.LayoutOptimized, zipr.Null())},
		{"zipr+cfi", rewriteWith(zipr.LayoutOptimized, zipr.CFI())},
	}
	summaries := map[string]cgcsim.Summary{}
	for _, cfg := range configs {
		t0 := time.Now()
		rows, err := cgcsim.EvaluateParallel(cbs, cfg.fn, jobs)
		if err != nil {
			return fmt.Errorf("%s: %w", cfg.name, err)
		}
		s := cgcsim.Summarize(rows)
		summaries[cfg.name] = s
		fmt.Printf("# %-9s evaluated in %v, functional %d/%d\n",
			cfg.name, time.Since(t0).Round(time.Millisecond), s.Functional, s.Total)
		if s.Functional != s.Total {
			for _, r := range rows {
				if !r.Functional {
					fmt.Printf("#   NOT FUNCTIONAL: %s\n", r.Name)
				}
			}
		}
	}

	printHist := func(fig, title string, pick func(cgcsim.Summary) *cgcsim.Histogram) {
		fmt.Printf("\n## Figure %s: histogram of %s overhead (CB count per bin)\n", fig, title)
		fmt.Printf("%-10s", "config")
		for _, b := range cgcsim.Bins {
			fmt.Printf(" %8s", b.Label)
		}
		fmt.Println()
		for _, cfg := range configs {
			fmt.Printf("%-10s", cfg.name)
			for _, c := range pick(summaries[cfg.name]).Counts {
				fmt.Printf(" %8d", c)
			}
			fmt.Println()
		}
	}
	if which == "figs" || which == "fig4" {
		printHist("4", "file-size", func(s cgcsim.Summary) *cgcsim.Histogram { return s.FileHist })
	}
	if which == "figs" || which == "fig5" {
		printHist("5", "execution", func(s cgcsim.Summary) *cgcsim.Histogram { return s.ExecHist })
	}
	if which == "figs" || which == "fig6" {
		printHist("6", "memory (MaxRSS)", func(s cgcsim.Summary) *cgcsim.Histogram { return s.MemHist })
	}
	if which == "figs" || which == "fig7" {
		fmt.Printf("\n## Figure 7: average overheads (%%)\n")
		fmt.Printf("%-10s %8s %8s %8s\n", "config", "filesize", "memory", "cpu")
		for _, cfg := range configs {
			s := summaries[cfg.name]
			fmt.Printf("%-10s %7.2f%% %7.2f%% %7.2f%%\n", cfg.name, s.AvgFile, s.AvgMem, s.AvgExec)
		}
	}
	fmt.Println()
	return nil
}

// ------------------------------------------------------------- robustness

// robustnessTests is the number of "unit tests" (driver inputs) per
// artifact, standing in for libc's 2500-test suite at reduced scale.
const robustnessTests = 40

func runRobustness(scale float64) error {
	fmt.Printf("# Robustness (§IV-A): Null-transform rewriting at scale %.3f\n", scale)
	fmt.Printf("%-8s %10s %10s %10s %8s %10s\n", "artifact", "size", "rewritten", "time", "tests", "parity")

	// libc and libjvm: shared libraries exercised through generated
	// test-driver executables.
	libs := []struct {
		name    string
		seed    int64
		profile synth.Profile
	}{
		{"libc", 11, synth.LibcProfile(scale)},
		{"libjvm", 12, synth.JVMProfile(scale * 0.5)},
	}
	for _, l := range libs {
		if err := robustnessLib(l.name, l.seed, l.profile); err != nil {
			return err
		}
	}
	return robustnessApache(scale)
}

func robustnessLib(name string, seed int64, profile synth.Profile) error {
	lib, err := synth.Build(seed, profile)
	if err != nil {
		return err
	}
	drv, err := synth.Build(seed+100, synth.TestDriverProfile(profile.LibName, []int{0, 3, 6, 9}))
	if err != nil {
		return err
	}
	origSize := lib.FileSize()

	t0 := time.Now()
	rlib, _, err := rewriteBinary(lib.Clone(), zipr.Config{Transforms: []zipr.Transform{zipr.Null()}})
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	elapsed := time.Since(t0)

	pass := 0
	rng := rand.New(rand.NewSource(seed * 7))
	for i := 0; i < robustnessTests; i++ {
		input := make([]byte, 16)
		rng.Read(input)
		want, err1 := runWithLibs(drv, map[string]*binfmt.Binary{profile.LibName: lib}, input)
		got, err2 := runWithLibs(drv, map[string]*binfmt.Binary{profile.LibName: rlib}, input)
		if err1 == nil && err2 == nil && want.ExitCode == got.ExitCode && bytes.Equal(want.Output, got.Output) {
			pass++
		}
	}
	fmt.Printf("%-8s %10d %10d %10v %8d %9.1f%%\n",
		name, origSize, rlib.FileSize(), elapsed.Round(time.Millisecond),
		robustnessTests, 100*float64(pass)/robustnessTests)
	return nil
}

func robustnessApache(scale float64) error {
	exeP, libPs := synth.ApacheProfiles(scale * 5) // apache is smaller; scale up
	libBins := map[string]*binfmt.Binary{}
	rlibBins := map[string]*binfmt.Binary{}
	totalSize, totalNew := 0, 0
	var totalTime time.Duration
	for i, lp := range libPs {
		lib, err := synth.Build(int64(300+i), lp)
		if err != nil {
			return err
		}
		libBins[lp.LibName] = lib
		totalSize += lib.FileSize()
		t0 := time.Now()
		rlib, _, err := rewriteBinary(lib.Clone(), zipr.Config{Transforms: []zipr.Transform{zipr.Null()}})
		if err != nil {
			return fmt.Errorf("apache lib %s: %w", lp.LibName, err)
		}
		totalTime += time.Since(t0)
		rlibBins[lp.LibName] = rlib
		totalNew += rlib.FileSize()
	}
	exe, err := synth.Build(299, exeP)
	if err != nil {
		return err
	}
	totalSize += exe.FileSize()
	t0 := time.Now()
	rexe, _, err := rewriteBinary(exe.Clone(), zipr.Config{Transforms: []zipr.Transform{zipr.Null()}})
	if err != nil {
		return fmt.Errorf("apache exe: %w", err)
	}
	totalTime += time.Since(t0)
	totalNew += rexe.FileSize()

	pass := 0
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < robustnessTests; i++ {
		input := make([]byte, exeP.InputLen)
		rng.Read(input)
		want, err1 := runWithLibs(exe, libBins, input)
		got, err2 := runWithLibs(rexe, rlibBins, input)
		if err1 == nil && err2 == nil && want.ExitCode == got.ExitCode && bytes.Equal(want.Output, got.Output) {
			pass++
		}
	}
	fmt.Printf("%-8s %10d %10d %10v %8d %9.1f%%\n",
		"apache", totalSize, totalNew, totalTime.Round(time.Millisecond),
		robustnessTests, 100*float64(pass)/robustnessTests)
	fmt.Println()
	return nil
}

func runWithLibs(bin *binfmt.Binary, libs map[string]*binfmt.Binary, input []byte) (vm.Result, error) {
	m := vm.New(vm.WithStdin(bytes.NewReader(input)), vm.WithMaxSteps(200_000_000))
	if err := loader.Load(m, bin, libs); err != nil {
		return vm.Result{}, err
	}
	return m.Run()
}

// -------------------------------------------------------------- ablations

func runAblatePinning(n int) error {
	fmt.Printf("# Ablation A1 (§II-A2): heuristic pinning vs. naive block pinning (%d CBs)\n", n)
	cbs, err := cgcsim.Corpus(n, nil)
	if err != nil {
		return err
	}
	heur, err := cgcsim.EvaluateParallel(cbs, rewriteWith(zipr.LayoutOptimized, zipr.Null()), jobs)
	if err != nil {
		return err
	}
	naive, err := cgcsim.EvaluateParallel(cbs, rewriteWith(zipr.LayoutOptimized, zipr.PinBlocks(), zipr.Null()), jobs)
	if err != nil {
		return err
	}
	hs, ns := cgcsim.Summarize(heur), cgcsim.Summarize(naive)
	fmt.Printf("%-18s %9s %9s %9s %11s\n", "pinning", "file%", "cpu%", "mem%", "functional")
	fmt.Printf("%-18s %8.2f%% %8.2f%% %8.2f%% %7d/%d\n", "heuristic", hs.AvgFile, hs.AvgExec, hs.AvgMem, hs.Functional, hs.Total)
	fmt.Printf("%-18s %8.2f%% %8.2f%% %8.2f%% %7d/%d\n", "naive (blocks)", ns.AvgFile, ns.AvgExec, ns.AvgMem, ns.Functional, ns.Total)
	fmt.Println()
	return nil
}

func runAblateLayout(n int) error {
	fmt.Printf("# Ablation A2 (§III): optimized vs. diversity layout (%d CBs)\n", n)
	cbs, err := cgcsim.Corpus(n, nil)
	if err != nil {
		return err
	}
	opt, err := cgcsim.EvaluateParallel(cbs, rewriteWith(zipr.LayoutOptimized, zipr.Null()), jobs)
	if err != nil {
		return err
	}
	div, err := cgcsim.EvaluateParallel(cbs, rewriteWith(zipr.LayoutDiversity, zipr.Null()), jobs)
	if err != nil {
		return err
	}
	os1, ds := cgcsim.Summarize(opt), cgcsim.Summarize(div)
	fmt.Printf("%-12s %9s %9s %9s %11s\n", "layout", "file%", "cpu%", "mem%", "functional")
	fmt.Printf("%-12s %8.2f%% %8.2f%% %8.2f%% %7d/%d\n", "optimized", os1.AvgFile, os1.AvgExec, os1.AvgMem, os1.Functional, os1.Total)
	fmt.Printf("%-12s %8.2f%% %8.2f%% %8.2f%% %7d/%d\n", "diversity", ds.AvgFile, ds.AvgExec, ds.AvgMem, ds.Functional, ds.Total)
	fmt.Println()
	return nil
}

// runAblatePGO demonstrates the optimization use case: an error-path-
// heavy program is profiled and rewritten under the profile-guided
// layout; hot-path MaxRSS drops against the original while behavior
// stays identical on both paths.
func runAblatePGO() error {
	fmt.Printf("# Ablation A4: profile-guided layout on an error-path-heavy program\n")
	profile := synth.Profile{
		Name: "pgoeval", NumFuncs: 20, OpsMin: 6, OpsMax: 20, LoopIters: 16,
		ColdFuncs: 100, DirectCallAll: true, HeapPages: 1, InputLen: 32,
	}
	orig, err := synth.Build(21, profile)
	if err != nil {
		return err
	}
	training := bytes.Repeat([]byte{0x42}, profile.InputLen)
	errorInput := append(bytes.Repeat([]byte{0x42}, profile.InputLen-1), 0xFF)

	prof := zipr.NewProfiler()
	instrumented, _, err := rewriteBinary(orig.Clone(), zipr.Config{
		Transforms: []zipr.Transform{prof},
	})
	if err != nil {
		return err
	}
	m := vm.New(vm.WithStdin(bytes.NewReader(training)), vm.WithMaxSteps(200_000_000))
	if err := loader.Load(m, instrumented, nil); err != nil {
		return err
	}
	if _, err := m.Run(); err != nil {
		return err
	}
	var hot []uint32
	for entry, ctr := range prof.Counters {
		raw, err := m.ReadMem(ctr, 4)
		if err != nil {
			return err
		}
		if raw[0]|raw[1]|raw[2]|raw[3] != 0 {
			hot = append(hot, entry)
		}
	}
	pgo, _, err := rewriteBinary(orig.Clone(), zipr.Config{
		Layout: zipr.LayoutProfileGuided, HotFuncs: hot,
	})
	if err != nil {
		return err
	}
	base, err := runWithLibs(orig, nil, training)
	if err != nil {
		return err
	}
	fast, err := runWithLibs(pgo, nil, training)
	if err != nil {
		return err
	}
	baseErr, err1 := runWithLibs(orig, nil, errorInput)
	fastErr, err2 := runWithLibs(pgo, nil, errorInput)
	if err1 != nil || err2 != nil {
		return fmt.Errorf("error-path run failed: %v %v", err1, err2)
	}
	ok := base.ExitCode == fast.ExitCode && bytes.Equal(base.Output, fast.Output) &&
		baseErr.ExitCode == fastErr.ExitCode && bytes.Equal(baseErr.Output, fastErr.Output)
	fmt.Printf("functions: %d profiled, %d hot\n", len(prof.Counters), len(hot))
	fmt.Printf("hot-path MaxRSS: original %d pages -> profile-guided %d pages (%+.0f%%)\n",
		base.PagesTouched, fast.PagesTouched,
		100*float64(fast.PagesTouched-base.PagesTouched)/float64(base.PagesTouched))
	fmt.Printf("behavior identical on hot and error paths: %v\n\n", ok)
	return nil
}

// sledProgram builds a program whose dispatch table targets adjacent
// one-byte instructions, forcing dense references; spread controls the
// spacing (1 = dense/sled path, 16 = ordinary references).
func sledProgram(spread int) string {
	var sb strings.Builder
	sb.WriteString(".text 0x00100000\n.entry main\n")
	// Targets come first so the sled's tail can grow into main's
	// relocatable bytes; with spread > 1 each target pads itself with
	// executed nops so the pinned addresses sit apart.
	for i := 0; i < 4; i++ {
		fmt.Fprintf(&sb, "t%d:\n", i)
		for p := 1; p < spread; p++ {
			sb.WriteString("    nop\n")
		}
		sb.WriteString("    ret\n")
	}
	sb.WriteString("main:\n")
	sb.WriteString("    movi r0, 3\n    movi r1, 0\n    movi r2, sel\n    movi r3, 4\n    syscall\n")
	sb.WriteString("    movi r4, sel\n    load r4, [r4]\n    andi r4, 3\n    shli r4, 2\n")
	sb.WriteString("    movi r5, tab\n    add r5, r4\n    load r5, [r5]\n")
	// Call each target many times to make dispatch cost visible.
	sb.WriteString("    movi r7, 2000\nlp:\n    callr r5\n    dec r7\n    jnz lp\n")
	sb.WriteString("    movi r0, 1\n    movi r1, 0\n    syscall\n")
	sb.WriteString(".data 0x00200000\n")
	sb.WriteString("tab: .word t0, t1, t2, t3\n")
	sb.WriteString("sel: .space 4\n")
	return sb.String()
}

func runAblateSleds() error {
	fmt.Printf("# Ablation A3 (§II-C2): sled dispatch cost on dense references\n")
	fmt.Printf("%-10s %8s %8s %10s %12s\n", "layout", "sleds", "entries", "cpu%", "functional")
	for _, tc := range []struct {
		name   string
		spread int
	}{
		{"dense", 1},
		{"spread", 16},
	} {
		bin, err := asm.Assemble(sledProgram(tc.spread))
		if err != nil {
			return err
		}
		rw, rep, err := rewriteBinary(bin.Clone(), zipr.Config{Transforms: []zipr.Transform{zipr.Null()}})
		if err != nil {
			return err
		}
		ok := true
		var overhead float64
		for sel := byte(0); sel < 4; sel++ {
			input := []byte{sel, 0, 0, 0}
			want, err1 := runWithLibs(bin, nil, input)
			got, err2 := runWithLibs(rw, nil, input)
			if err1 != nil || err2 != nil || want.ExitCode != got.ExitCode {
				ok = false
				continue
			}
			overhead += 100 * (float64(got.Steps) - float64(want.Steps)) / float64(want.Steps)
		}
		fmt.Printf("%-10s %8d %8d %9.2f%% %12v\n",
			tc.name, rep.Stats.Sleds, rep.Stats.SledEntries, overhead/4, ok)
	}
	fmt.Println()
	return nil
}

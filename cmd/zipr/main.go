// Command zipr statically rewrites a ZELF binary or shared library.
//
// Usage:
//
//	zipr [-transforms SPEC] [-layout optimized|diversity|profile-guided]
//	     [-arbitration two-way|weighted] [-isa zvm32|zvm64] [-seed N] [-stats]
//	     [-phase-times] [-trace-out trace.jsonl] [-sql "SELECT ..."] [-chaos-seed N]
//	     input.zelf output.zelf
//
// SPEC is the transform spec cmd/ziprd takes too (zipr.ParseTransforms):
// comma-separated names, each with an optional ":value" parameter, as
// in cfi,stackpad:32,stir:9. The names are null, cfi, stackpad[:N]
// (default 64 bytes), canary[:V], stir[:SEED], nop-elide and pin-blocks.
//
// The -sql flag runs a SELECT against the IR database captured after
// construction (tables: instructions, functions, fixed_ranges,
// warnings) and prints the rows, which is handy for inspecting what the
// analysis concluded about a binary. The database is a read-only dump:
// any other statement is an error.
//
// -phase-times prints a per-phase wall-time and memory-delta table for
// the rewrite; -trace-out writes the same data (every span, counter,
// gauge and histogram) as JSON-lines for offline analysis.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"zipr"
	"zipr/internal/binfmt"
	"zipr/internal/isa"
	"zipr/internal/loader"
	"zipr/internal/vm"
)

// verifyPair runs the original and rewritten images on the same input
// and compares their transcripts — the paper's functionality oracle as a
// command-line check.
func verifyPair(origImage, newImage []byte, inputPath string, arch isa.Arch) (string, error) {
	input, err := os.ReadFile(inputPath)
	if err != nil {
		return "", err
	}
	runOne := func(image []byte) (vm.Result, error) {
		bin, err := binfmt.Unmarshal(image)
		if err != nil {
			return vm.Result{}, err
		}
		m := vm.New(vm.WithStdin(bytes.NewReader(input)),
			vm.WithMaxSteps(500_000_000), vm.WithArch(arch))
		if err := loader.Load(m, bin, nil); err != nil {
			return vm.Result{}, err
		}
		return m.Run()
	}
	want, err1 := runOne(origImage)
	got, err2 := runOne(newImage)
	switch {
	case err1 != nil:
		return "", fmt.Errorf("verify: original binary failed: %w", err1)
	case err2 != nil:
		return "", fmt.Errorf("verify: rewritten binary failed: %w", err2)
	case want.ExitCode != got.ExitCode:
		return "", fmt.Errorf("verify: exit codes differ: %d vs %d", want.ExitCode, got.ExitCode)
	case !bytes.Equal(want.Output, got.Output):
		return "", fmt.Errorf("verify: transcripts differ (%d vs %d bytes)", len(want.Output), len(got.Output))
	}
	// Transcripts match; report execution-cost deltas so rewriting
	// overhead (extra reference jumps, touched pages, dispatch code) is
	// visible, not just behavioral parity.
	delta := func(orig, new uint64) string {
		if orig == 0 {
			return "n/a"
		}
		return fmt.Sprintf("%+.2f%%", 100*(float64(new)-float64(orig))/float64(orig))
	}
	return fmt.Sprintf("verify: transcripts identical (exit %d, %d output bytes)\n"+
		"verify: original  steps=%d pages=%d syscalls=%d memops=%d\n"+
		"verify: rewritten steps=%d (%s) pages=%d (%s) syscalls=%d memops=%d (%s)",
		want.ExitCode, len(want.Output),
		want.Steps, want.PagesTouched, want.Syscalls, want.MemOps,
		got.Steps, delta(want.Steps, got.Steps),
		got.PagesTouched, delta(uint64(want.PagesTouched), uint64(got.PagesTouched)),
		got.Syscalls, got.MemOps, delta(want.MemOps, got.MemOps)), nil
}

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil && err != flag.ErrHelp {
		fmt.Fprintln(os.Stderr, "zipr:", err)
		os.Exit(1)
	}
}

// run rewrites the binary that args name, writing its report to stdout
// and flag diagnostics to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("zipr", flag.ContinueOnError)
	fs.SetOutput(stderr)
	transforms := fs.String("transforms", "null", "transform spec, e.g. cfi,stackpad:32,stir:9 (null, cfi, stackpad[:N], canary[:V], stir[:SEED], nop-elide, pin-blocks)")
	layoutFlag := fs.String("layout", "optimized", "optimized | diversity | profile-guided")
	arbFlag := fs.String("arbitration", "two-way", "ambiguity arbitration: two-way | weighted")
	isaFlag := fs.String("isa", "zvm32", "instruction set of the input binary: zvm32 | zvm64")
	seed := fs.Int64("seed", 1, "diversity layout seed")
	stats := fs.Bool("stats", false, "print reassembly statistics")
	warns := fs.Bool("warnings", false, "print analysis warnings")
	phaseTimes := fs.Bool("phase-times", false, "print a per-phase wall-time and memory-delta table")
	traceOut := fs.String("trace-out", "", "write the phase trace and metrics as JSON-lines to this file")
	sql := fs.String("sql", "", "run an SQL SELECT against the captured IR (read-only: WHERE, IN/NOT IN, ORDER BY, LIMIT, COUNT(*))")
	mapOut := fs.String("map", "", "write an original->rewritten address map to this file")
	verify := fs.String("verify-input", "", "run original and rewritten binaries on this input file and compare transcripts")
	chaosSeed := fs.Int64("chaos-seed", 0, "arm deterministic fault injection with this seed (0 = off); the run must end in a verified rewrite or a typed error")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if fs.NArg() != 2 {
		return fmt.Errorf("usage: zipr [flags] input.zelf output.zelf")
	}
	input, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}

	tfs, err := zipr.ParseTransforms(*transforms)
	if err != nil {
		return err
	}
	var sinks []zipr.TraceSink
	var traceFile *os.File
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		traceFile = f
		sinks = append(sinks, zipr.NewJSONLSink(f))
	}
	if *phaseTimes {
		sinks = append(sinks, zipr.NewTableSink(stdout))
	}
	var tr *zipr.Trace
	if len(sinks) > 0 {
		tr = zipr.NewTrace(sinks...)
	}
	cfg := zipr.Config{
		Transforms:  tfs,
		Layout:      zipr.LayoutKind(*layoutFlag),
		Arbitration: zipr.ArbitrationKind(*arbFlag),
		ISA:         *isaFlag,
		Seed:        *seed,
		CaptureIR:   *sql != "",
		EmitMap:     *mapOut != "",
		Trace:       tr,
	}
	if *chaosSeed != 0 {
		cfg.Chaos = zipr.NewFaultInjector(*chaosSeed)
		fmt.Fprintf(stdout, "chaos: %s\n", cfg.Chaos.Describe())
	}
	out, report, err := zipr.Rewrite(input, cfg)
	if err != nil {
		if class := zipr.ErrorClass(err); class != "" {
			return fmt.Errorf("[%s] %w", class, err)
		}
		return err
	}
	if err := os.WriteFile(fs.Arg(1), out, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s: %d -> %d bytes (%+.2f%%), layout %s\n",
		fs.Arg(1), report.InputSize, report.OutputSize,
		report.SizeOverhead()*100, report.Layout)
	if tr != nil {
		if err := tr.Close(); err != nil {
			return err
		}
		if traceFile != nil {
			if err := traceFile.Close(); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%s: phase trace written\n", *traceOut)
		}
	}
	if *stats {
		s := report.Stats
		fmt.Fprintf(stdout, "pins %d (inline %d, 5-byte %d, 2-byte %d, chains %d, sleds %d/%d entries)\n",
			s.Pinned, s.InlinePins, s.Stubs5, s.Stubs2, s.Chains, s.Sleds, s.SledEntries)
		fmt.Fprintf(stdout, "dollops %d (splits %d), overflow %d bytes, text growth %d, free left %d, veneers %d\n",
			s.Dollops, s.Splits, s.OverflowUsed, s.TextGrowth, s.FreeLeft, s.Veneers)
	}
	if *warns {
		for _, w := range report.Warnings {
			fmt.Fprintln(stdout, "warning:", w)
		}
	}
	if *verify != "" {
		arch, err := isa.ByName(*isaFlag)
		if err != nil {
			return err
		}
		verdict, err := verifyPair(input, out, *verify, arch)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, verdict)
	}
	if *mapOut != "" {
		addrs := make([]uint32, 0, len(report.AddrMap))
		for a := range report.AddrMap {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		var sb strings.Builder
		for _, a := range addrs {
			fmt.Fprintf(&sb, "%#08x %#08x\n", a, report.AddrMap[a])
		}
		if err := os.WriteFile(*mapOut, []byte(sb.String()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s: %d mappings\n", *mapOut, len(addrs))
	}
	if *sql != "" {
		res, err := report.IRDB.Exec(*sql)
		if err != nil {
			return err
		}
		for _, row := range res.Rows {
			keys := make([]string, 0, len(row))
			for k := range row {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			parts := make([]string, 0, len(keys))
			for _, k := range keys {
				parts = append(parts, fmt.Sprintf("%s=%v", k, row[k]))
			}
			fmt.Fprintln(stdout, strings.Join(parts, " "))
		}
	}
	return nil
}

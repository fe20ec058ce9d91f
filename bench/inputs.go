package main

import (
	"fmt"
	"math/rand"
	"strings"

	"zipr"
	"zipr/internal/asm"
	"zipr/internal/binfmt"
	"zipr/internal/cgcsim"
	"zipr/internal/isa"
	"zipr/internal/par"
	"zipr/internal/synth"
)

// verifyInputLen is how many bytes of a poller a verification run feeds
// the program. Generated programs loop once per input byte, so a prefix
// keeps the check's VM time to a few seconds per corpus while still
// driving the dispatch loop, the function-pointer table and CFI checks.
const verifyInputLen = 8

// program is one input a pipeline workload rewrites, plus what its
// verification needs.
type program struct {
	name string
	arch isa.Arch
	img  []byte         // serialized original
	bin  *binfmt.Binary // original, for the verification runs
	cfg  zipr.Config
	runs []vmRun
	// source regenerates the assembly source; nil for handwritten inputs.
	// Only the traced run needs it (to derive edits), so it is not kept.
	source func() string
}

// vmRun is one verification run. With exe nil the program is the
// executable; otherwise the program is the library lib that exe loads.
type vmRun struct {
	exe   *binfmt.Binary
	lib   string
	stdin []byte
}

// knownFailure reports whether err is a defect the rewriter had when
// this benchmark was defined: CFI's target hash table can hit its probe
// bound on a small share of programs (about one CB in 60 per ISA and
// seed; at seed 0 it is cb11 on ZVM-64). Ops on such inputs are left out
// of the timed set, so that the run's own ops all succeed, but they count
// in error_rate, which compare gates against any rise on the same seed.
// Any other failure fails the run.
func knownFailure(err error) bool {
	return err != nil && zipr.ErrorClass(err) == "layout" &&
		strings.Contains(err.Error(), "cfi: target table overflow")
}

// maxKnown is the baseline: how many inputs of one run may fail with the
// known defect. Seeds 0 to 10 have at most one per workload; a run with
// more than maxKnown counts the surplus as failed and exits non-zero.
const maxKnown = 3

// cbSeed is the generation seed of corpus entry i under workload seed;
// seed 0 gives the canonical corpus (cgcsim.CBArch).
func cbSeed(i int, seed int64) (int64, synth.Profile) {
	s, p := synth.CBProfile(i)
	return s ^ seed, p
}

// buildCB generates corpus entry i for arch. Its verification input is a
// prefix of poller pick, derived the way cgcsim derives pollers.
func buildCB(i int, seed int64, arch isa.Arch, cfg zipr.Config, pick int) (*program, error) {
	s, p := cbSeed(i, seed)
	src := func() string { return synth.GenerateArch(s, p, arch) }
	bin, err := asm.AssembleArch(src(), arch)
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", p.Name, err)
	}
	img, err := bin.Marshal()
	if err != nil {
		return nil, err
	}
	return &program{
		name: p.Name, arch: arch, img: img, bin: bin, cfg: cfg, source: src,
		runs: []vmRun{{stdin: pollerPrefix(s, p.InputLen, pick)}},
	}, nil
}

// pollerPrefix returns the first verifyInputLen bytes of poller pick of
// a program generated with seed (cgcsim.CBArch's derivation).
func pollerPrefix(seed int64, inputLen, pick int) []byte {
	rng := rand.New(rand.NewSource(seed ^ 0x9E3779B9))
	in := make([]byte, inputLen)
	for i := 0; i <= pick; i++ {
		rng.Read(in)
	}
	if len(in) > verifyInputLen {
		in = in[:verifyInputLen]
	}
	return in
}

// buildAll runs build for 0..n-1 on one goroutine per CPU and returns
// the results in index order.
func buildAll(n int, build func(i int) (*program, error)) ([]*program, error) {
	progs := make([]*program, n)
	err := par.Each(par.Workers(0, n), n, func(i int) (err error) {
		progs[i], err = build(i)
		return err
	})
	return progs, err
}

// corpusCfg is the CGC configuration: CFI, optimized layout, two-way
// arbitration (the defaults).
func corpusCfg(arch isa.Arch) zipr.Config {
	return zipr.Config{Transforms: []zipr.Transform{zipr.CFI()}, Layout: zipr.LayoutOptimized, ISA: arch.Name()}
}

// genCorpus builds the 62-entry CGC-analogue corpus for arch; on ZVM-64
// it adds the veneer-stress binary, the only input that needs
// range-extension islands.
func genCorpus(seed int64, arch isa.Arch) ([]*program, error) {
	rng := rand.New(rand.NewSource(seed))
	picks := make([]int, synth.CorpusSize)
	for i := range picks {
		picks[i] = rng.Intn(cgcsim.PollersPerCB)
	}
	cfg := corpusCfg(arch)
	progs, err := buildAll(synth.CorpusSize, func(i int) (*program, error) {
		return buildCB(i, seed, arch, cfg, picks[i])
	})
	if err != nil || isa.IsDefault(arch) {
		return progs, err
	}
	vcb, err := cgcsim.VeneerCB(arch)
	if err != nil {
		return nil, err
	}
	img, err := vcb.Bin.Marshal()
	if err != nil {
		return nil, err
	}
	stdin := vcb.Pollers[rng.Intn(len(vcb.Pollers))]
	if len(stdin) > verifyInputLen {
		stdin = stdin[:verifyInputLen]
	}
	return append(progs, &program{
		name: vcb.Name, arch: arch, img: img, bin: vcb.Bin, cfg: cfg,
		runs: []vmRun{{stdin: stdin}},
	}), nil
}

// libTestInput is the input length of the large library's test
// program. It calls every export once per input byte, so one byte
// already touches the whole library, and the overheads do not hinge on
// which exports a run happens to call.
const libTestInput = 1

// genLibrary builds the libc-scale library (seed+11, the robustness
// experiment's seed at workload seed 0) and the executable that tests it.
func genLibrary(seed int64) ([]*program, error) {
	libSeed := seed + 11
	p := synth.LibcProfile(1.0)
	arch := isa.DefaultArch()
	src := func() string { return synth.GenerateArch(libSeed, p, arch) }
	bin, err := asm.AssembleArch(src(), arch)
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", p.Name, err)
	}
	img, err := bin.Marshal()
	if err != nil {
		return nil, err
	}
	var exports []int
	for i := 0; i < p.NumFuncs; i += 3 { // synth exports every third function
		exports = append(exports, i)
	}
	drv, err := synth.Build(libSeed+100, synth.TestDriverProfile(p.LibName, exports))
	if err != nil {
		return nil, err
	}
	stdin := make([]byte, libTestInput)
	rand.New(rand.NewSource(seed)).Read(stdin)
	cfg := zipr.Config{
		Transforms:  []zipr.Transform{zipr.Null()},
		Layout:      zipr.LayoutOptimized,
		Arbitration: zipr.ArbitrationWeighted,
	}
	return []*program{{name: p.Name, arch: arch, img: img, bin: bin, cfg: cfg, source: src,
		runs: []vmRun{{exe: drv, lib: p.LibName, stdin: stdin}}}}, nil
}

// measure runs prog's verification runs with bin standing in for the
// program, returning the CGC metrics of each run and its transcript.
func (p *program) measure(bin *binfmt.Binary) ([]cgcsim.Metrics, [][]cgcsim.Transcript, error) {
	ms := make([]cgcsim.Metrics, len(p.runs))
	ts := make([][]cgcsim.Transcript, len(p.runs))
	for i, r := range p.runs {
		exe, libs := bin, map[string]*binfmt.Binary(nil)
		if r.exe != nil {
			exe, libs = r.exe, map[string]*binfmt.Binary{r.lib: bin}
		}
		m, t, err := cgcsim.MeasureArch(exe, libs, [][]byte{r.stdin}, p.arch)
		if err != nil {
			return nil, nil, err
		}
		ms[i], ts[i] = m, t
	}
	return ms, ts, nil
}

// Package cgcsim reproduces the paper's CGC evaluation environment: a
// corpus of challenge binaries with pollers, the three DARPA scoring
// metrics (file size on disk, execution as retired instructions, memory
// as MaxRSS), functionality checking by transcript comparison, and the
// histogram bins of Figures 4-6.
package cgcsim

import (
	"bytes"
	"fmt"
	"math/rand"

	"zipr/internal/binfmt"
	"zipr/internal/isa"
	"zipr/internal/loader"
	"zipr/internal/par"
	"zipr/internal/synth"
	"zipr/internal/vm"
)

// CB is one challenge binary plus its pollers.
type CB struct {
	Name    string
	Bin     *binfmt.Binary
	Pollers [][]byte
}

// PollersPerCB is how many generated inputs exercise each binary.
const PollersPerCB = 4

// Corpus builds the n-binary challenge corpus (use synth.CorpusSize for
// the paper's 62) for the given instruction set; nil means ZVM-32.
// Profiles, seeds and pollers are identical across ISAs; only the
// generated machine code differs. Binaries and pollers are
// deterministic: every CB is derived solely from its index, so
// construction fans out across workers and fills the slice by index.
func Corpus(n int, arch isa.Arch) ([]CB, error) {
	cbs := make([]CB, n)
	err := par.Each(par.Workers(max(n/4, 1), n), n, func(i int) error {
		cb, err := CBArch(i, arch)
		if err != nil {
			return err
		}
		cbs[i] = cb
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cbs, nil
}

// CBArch builds the single corpus entry with index i for the given
// instruction set (nil means ZVM-32) — the unit Corpus fans out over.
// Suites that pin a sparse slice of the corpus (the per-ISA golden
// matrix) use it to get exactly the programs they need, with the same
// binaries and pollers a full Corpus run would produce at that index.
func CBArch(i int, arch isa.Arch) (CB, error) {
	seed, profile := synth.CBProfile(i)
	bin, err := synth.BuildArch(seed, profile, arch)
	if err != nil {
		return CB{}, fmt.Errorf("cgcsim: build cb%d: %w", i, err)
	}
	rng := rand.New(rand.NewSource(seed ^ 0x9E3779B9))
	pollers := make([][]byte, PollersPerCB)
	for pi := range pollers {
		in := make([]byte, profile.InputLen)
		rng.Read(in)
		pollers[pi] = in
	}
	return CB{Name: profile.Name, Bin: bin, Pollers: pollers}, nil
}

// VeneerCB builds the handwritten veneer-stress challenge binary for
// arch, with deterministic pollers derived the same way as Corpus's.
// On a bounded-reach ISA its rewrite must emit range-extension islands
// (see synth.VeneerStressSource).
func VeneerCB(arch isa.Arch) (CB, error) {
	bin, err := synth.BuildVeneer(arch)
	if err != nil {
		return CB{}, fmt.Errorf("cgcsim: build veneer: %w", err)
	}
	rng := rand.New(rand.NewSource(synth.VeneerSeed ^ 0x9E3779B9))
	pollers := make([][]byte, PollersPerCB)
	for pi := range pollers {
		in := make([]byte, synth.VeneerInputLen)
		rng.Read(in)
		pollers[pi] = in
	}
	return CB{Name: synth.VeneerStressName, Bin: bin, Pollers: pollers}, nil
}

// Metrics are the three CGC scoring dimensions for one binary across its
// pollers.
type Metrics struct {
	FileSize    int    // serialized ZELF bytes
	Steps       uint64 // retired instructions, summed over pollers
	MaxRSSPages int    // peak distinct 4 KiB pages, max over pollers
}

// Transcript is the observable behavior of one poller run.
type Transcript struct {
	Output []byte
	Exit   int32
}

// MeasureArch runs every poller against bin on a VM for the given
// instruction set (nil means ZVM-32) and returns metrics plus the
// transcripts (the functionality oracle).
func MeasureArch(bin *binfmt.Binary, libs map[string]*binfmt.Binary, pollers [][]byte, arch isa.Arch) (Metrics, []Transcript, error) {
	m := Metrics{FileSize: bin.FileSize()}
	transcripts := make([]Transcript, 0, len(pollers))
	for pi, input := range pollers {
		machine := vm.New(vm.WithStdin(bytes.NewReader(input)),
			vm.WithMaxSteps(50_000_000), vm.WithArch(arch))
		if err := loader.Load(machine, bin, libs); err != nil {
			return m, nil, fmt.Errorf("cgcsim: poller %d: %w", pi, err)
		}
		res, err := machine.Run()
		if err != nil {
			return m, nil, fmt.Errorf("cgcsim: poller %d: %w", pi, err)
		}
		m.Steps += res.Steps
		if res.PagesTouched > m.MaxRSSPages {
			m.MaxRSSPages = res.PagesTouched
		}
		transcripts = append(transcripts, Transcript{Output: res.Output, Exit: res.ExitCode})
	}
	return m, transcripts, nil
}

// Equivalent reports whether two transcript sets are byte-identical.
func Equivalent(a, b []Transcript) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Exit != b[i].Exit || !bytes.Equal(a[i].Output, b[i].Output) {
			return false
		}
	}
	return true
}

// Overheads are relative cost increases, in percent.
type Overheads struct {
	File, Exec, Mem float64
}

// Overhead computes other's cost relative to base.
func Overhead(base, other Metrics) Overheads {
	pct := func(b, o float64) float64 {
		if b == 0 {
			return 0
		}
		return (o - b) / b * 100
	}
	return Overheads{
		File: pct(float64(base.FileSize), float64(other.FileSize)),
		Exec: pct(float64(base.Steps), float64(other.Steps)),
		Mem:  pct(float64(base.MaxRSSPages), float64(other.MaxRSSPages)),
	}
}

// Bin is one histogram bucket of Figures 4-6.
type Bin struct {
	Label string
	Max   float64 // upper bound in percent (inclusive)
}

// Bins are the overhead buckets used in the figures. The CGC thresholds
// fall on the 5% (execution/memory) and 20% (file size) edges.
var Bins = []Bin{
	{Label: "<=0%", Max: 0},
	{Label: "0-5%", Max: 5},
	{Label: "5-10%", Max: 10},
	{Label: "10-20%", Max: 20},
	{Label: "20-50%", Max: 50},
	{Label: ">50%", Max: 1e18},
}

// Histogram counts overheads per bin.
type Histogram struct {
	Counts []int
}

// NewHistogram creates an empty histogram over Bins.
func NewHistogram() *Histogram { return &Histogram{Counts: make([]int, len(Bins))} }

// Add buckets one overhead percentage.
func (h *Histogram) Add(pct float64) {
	for i, b := range Bins {
		if pct <= b.Max {
			h.Counts[i]++
			return
		}
	}
	h.Counts[len(h.Counts)-1]++
}

// RewriteFunc rewrites one binary (a closure over the zipr pipeline and
// a transform configuration).
type RewriteFunc func(*binfmt.Binary) (*binfmt.Binary, error)

// Row is the per-CB result of one configuration.
type Row struct {
	Name       string
	Overheads  Overheads
	Functional bool
}

// EvaluateParallel rewrites every CB under rewrite and measures
// overheads against the unmodified binaries, with the given worker
// count (the cgc-eval -j flag); workers <= 0 uses GOMAXPROCS. Each CB's
// rewrite-and-measure cycle is independent, so the corpus fans out
// across a bounded pool; rows are written by corpus index, making the
// result order — and, because each cycle is deterministic, the result
// values — identical at any worker count. On failure the error for the
// lowest-index CB is returned, matching the serial loop's first error.
//
// The rewrite closure is called concurrently and must be safe for that:
// the zipr pipeline is, provided closures over a shared *obs.Trace are
// avoided (give each rewrite its own Trace and fold them into an
// obs.Agg, which locks).
func EvaluateParallel(cbs []CB, rewrite RewriteFunc, workers int) ([]Row, error) {
	rows := make([]Row, len(cbs))
	err := par.Each(par.Workers(workers, len(cbs)), len(cbs), func(i int) error {
		cb := &cbs[i]
		baseM, baseT, err := MeasureArch(cb.Bin, nil, cb.Pollers, nil)
		if err != nil {
			return fmt.Errorf("cgcsim: %s baseline: %w", cb.Name, err)
		}
		rcb, err := rewrite(cb.Bin.Clone())
		if err != nil {
			return fmt.Errorf("cgcsim: %s rewrite: %w", cb.Name, err)
		}
		newM, newT, err := MeasureArch(rcb, nil, cb.Pollers, nil)
		if err != nil {
			return fmt.Errorf("cgcsim: %s rewritten run: %w", cb.Name, err)
		}
		rows[i] = Row{
			Name:       cb.Name,
			Overheads:  Overhead(baseM, newM),
			Functional: Equivalent(baseT, newT),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Summary aggregates rows into the figures' data.
type Summary struct {
	FileHist, ExecHist, MemHist *Histogram
	AvgFile, AvgExec, AvgMem    float64
	Functional, Total           int
}

// Summarize produces histogram and average views over rows (Figures 4-7).
func Summarize(rows []Row) Summary {
	s := Summary{
		FileHist: NewHistogram(),
		ExecHist: NewHistogram(),
		MemHist:  NewHistogram(),
		Total:    len(rows),
	}
	for _, r := range rows {
		s.FileHist.Add(r.Overheads.File)
		s.ExecHist.Add(r.Overheads.Exec)
		s.MemHist.Add(r.Overheads.Mem)
		s.AvgFile += r.Overheads.File
		s.AvgExec += r.Overheads.Exec
		s.AvgMem += r.Overheads.Mem
		if r.Functional {
			s.Functional++
		}
	}
	if len(rows) > 0 {
		n := float64(len(rows))
		s.AvgFile /= n
		s.AvgExec /= n
		s.AvgMem /= n
	}
	return s
}

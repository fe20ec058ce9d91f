package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the harness reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// pointBounds are the metrics compare judges by their difference on the
// same seed, in the metric's own unit, instead of by a share of the base
// median: how far each may rise. They repeat exactly for a given seed, so
// a paired difference shows any change the code makes, while their
// BENCHMARK.json bounds must also cover how much they differ between
// seeds. error_rate may not rise at all.
var pointBounds = map[string]float64{
	"size_overhead_pct": 0.1,
	"exec_overhead_pct": 0.1,
	"mem_overhead_pct":  0.1,
	"error_rate":        0,
}

// extraGates are the result extras compare gates beside BENCHMARK.json's
// metrics, with the metric whose bound they take. latency_ms_p95 is not
// in BENCHMARK.json because large-lib's 40 ops leave too few samples
// beyond it; the other workloads report it and it is gated there.
var extraGates = []struct{ name, unit, boundOf string }{
	{"latency_ms_p95", "ms", "latency_ms_p50"},
	{"error_rate", "ratio", ""},
}

// Verdicts of one (metric, workload) pair.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
)

// side summarizes one side's runs of one metric on one workload.
type side struct {
	n           int
	q1, med, q3 float64
	spread      float64 // (q3 - q1) / median
}

func summarize(xs []float64) side {
	q1, _, q3 := quartiles(xs)
	s := side{n: len(xs), q1: q1, med: median(xs), q3: q3}
	if s.med != 0 {
		s.spread = (q3 - q1) / s.med
	}
	return s
}

// classify compares the change's runs b against the base's runs a. The
// change is worse (better) when its median is worse (better) than the
// base's by more than bound, a share of the base median. The pair is
// unresolved when either side's quartile spread exceeds the bound,
// unless every run of one side beats every run of the other.
func classify(a, b []float64, bound float64, higherBetter bool) string {
	sa, sb := summarize(a), summarize(b)
	// beats reports whether every run in xs is better than every run in ys.
	beats := func(xs, ys []float64) bool {
		for _, x := range xs {
			for _, y := range ys {
				if (higherBetter && x <= y) || (!higherBetter && x >= y) {
					return false
				}
			}
		}
		return true
	}
	separated := beats(a, b) || beats(b, a)
	if (sa.spread > bound || sb.spread > bound) && !separated {
		return verdictUnresolved
	}
	var rel float64 // how much worse b is than a, as a share of a
	switch {
	case sa.med != 0:
		rel = (sb.med - sa.med) / math.Abs(sa.med)
	case sb.med > 0:
		rel = math.Inf(1)
	case sb.med < 0:
		rel = math.Inf(-1)
	}
	if higherBetter {
		rel = -rel
	}
	switch {
	case rel > bound:
		return verdictWorse
	case rel < -bound:
		return verdictBetter
	}
	return verdictUnchanged
}

// classifyPaired judges a lower-is-better metric by its per-seed
// differences (change minus base): worse when their mean rises by more
// than bound, better when it falls by more than bound, unresolved when
// the two sides share no seed.
func classifyPaired(deltas []float64, bound float64) string {
	if len(deltas) == 0 {
		return verdictUnresolved
	}
	switch d := mean(deltas); {
	case d > bound:
		return verdictWorse
	case d < -bound || (bound == 0 && d < 0):
		return verdictBetter
	}
	return verdictUnchanged
}

// runVals is one result line as compare reads it: its seed and every
// metric and extra it reported.
type runVals struct {
	seed int64
	vals map[string]float64
}

// values returns the runs' values of name, skipping runs without it.
func values(runs []runVals, name string) []float64 {
	var xs []float64
	for _, r := range runs {
		if v, ok := r.vals[name]; ok {
			xs = append(xs, v)
		}
	}
	return xs
}

// pairedDeltas returns, for every seed both sides ran, the change's
// median of name minus the base's.
func pairedDeltas(a, b []runVals, name string) []float64 {
	bySeed := func(runs []runVals) map[int64][]float64 {
		m := map[int64][]float64{}
		for _, r := range runs {
			if v, ok := r.vals[name]; ok {
				m[r.seed] = append(m[r.seed], v)
			}
		}
		return m
	}
	sa, sb := bySeed(a), bySeed(b)
	var seeds []int64
	for s := range sa {
		if _, ok := sb[s]; ok {
			seeds = append(seeds, s)
		}
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	var d []float64
	for _, s := range seeds {
		d = append(d, median(sb[s])-median(sa[s]))
	}
	return d
}

// loadRuns reads -out files: one result per line. It returns, per
// workload, the untraced runs and the traced ones.
func loadRuns(path string) (untraced, traced map[string][]runVals, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	untraced, traced = map[string][]runVals{}, map[string][]runVals{}
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		rv := runVals{seed: r.Seed, vals: map[string]float64{}}
		for name, m := range r.Extra {
			rv.vals[name] = m.Value
		}
		for name, m := range r.Metrics {
			rv.vals[name] = m.Value
		}
		if r.Trace {
			traced[r.Workload] = append(traced[r.Workload], rv)
		} else {
			untraced[r.Workload] = append(untraced[r.Workload], rv)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if len(untraced)+len(traced) == 0 {
		return nil, nil, fmt.Errorf("%s: no runs", path)
	}
	return untraced, traced, nil
}

// compareMain is `bench compare [-spec BENCHMARK.json] BASE CHANGE`. It
// prints every (metric, workload) pair with each side's median and
// quartiles, the ratio of the medians and a verdict, and exits 1 when any
// pair is worse or unresolved.
func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-spec BENCHMARK.json] BASE.jsonl CHANGE.jsonl")
		return 2
	}
	n, err := compare(*specPath, fs.Arg(0), fs.Arg(1), w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	if n > 0 {
		return 1
	}
	return 0
}

// compare writes the comparison table and returns how many pairs are
// worse or unresolved.
func compare(specPath, basePath, changePath string, w io.Writer) (int, error) {
	spec, err := loadSpec(specPath)
	if err != nil {
		return 0, err
	}
	aU, aT, err := loadRuns(basePath)
	if err != nil {
		return 0, err
	}
	bU, bT, err := loadRuns(changePath)
	if err != nil {
		return 0, err
	}
	bounds := map[string]specMetric{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m
	}
	gated := append([]specMetric(nil), spec.EndToEnd...)
	for _, g := range extraGates {
		gated = append(gated, specMetric{Name: g.name, Unit: g.unit, Better: "lower", Bound: bounds[g.boundOf].Bound})
	}

	bw := bufio.NewWriter(w)
	defer bw.Flush()
	fmt.Fprintf(bw, "%-13s %-30s %8s %32s %32s %8s  %s\n",
		"workload", "metric", "bound", "base median [q1, q3] (n)", "change median [q1, q3] (n)", "ratio", "verdict")
	bad := 0
	counts := map[string]int{}
	// row prints one pair; verdict is empty for an ungated pair.
	row := func(wl, name, bound string, a, b []float64, verdict, note string) {
		sa, sb := summarize(a), summarize(b)
		ratio := 0.0
		if sa.med != 0 {
			ratio = sb.med / sa.med
		}
		shown := verdict + note
		if verdict == "" {
			shown, bound = "-", "-"
		} else {
			counts[verdict]++
		}
		fmt.Fprintf(bw, "%-13s %-30s %8s %32s %32s %8.4f  %s\n", wl, name, bound,
			fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", sa.med, sa.q1, sa.q3, sa.n),
			fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", sb.med, sb.q1, sb.q3, sb.n), ratio, shown)
		if verdict == verdictWorse || verdict == verdictUnresolved {
			bad++
		}
	}
	pairs := 0
	for _, wl := range spec.Workloads {
		ra, rb := aU[wl.Name], bU[wl.Name]
		for _, m := range gated {
			a, b := values(ra, m.Name), values(rb, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			pairs++
			if pb, ok := pointBounds[m.Name]; ok {
				d := pairedDeltas(ra, rb, m.Name)
				note := " (no common seed)"
				if len(d) > 0 {
					note = fmt.Sprintf(" (mean change %+.4g over %d seeds)", mean(d), len(d))
				}
				row(wl.Name, m.Name, fmt.Sprintf("+%g abs", pb), a, b, classifyPaired(d, pb), note)
				continue
			}
			row(wl.Name, m.Name, fmt.Sprintf("%.3g", m.Bound), a, b, classify(a, b, m.Bound, m.Better == "higher"), "")
		}
		for _, m := range spec.PerLayer {
			a, b := values(aT[wl.Name], m.Name), values(bT[wl.Name], m.Name)
			if len(a) > 0 && len(b) > 0 {
				row(wl.Name, m.Name, "", a, b, "", "")
				pairs++
			}
		}
	}
	if pairs == 0 {
		return 0, errors.New("the two files share no (metric, workload) pair")
	}
	var vs []string
	for v, n := range counts {
		vs = append(vs, fmt.Sprintf("%s %d", v, n))
	}
	sort.Strings(vs)
	fmt.Fprintf(bw, "summary: %v\n", vs)
	return bad, nil
}

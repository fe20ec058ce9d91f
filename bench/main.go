// Command bench is the rewriter's benchmark harness. It generates one
// workload's inputs from a seed, drives the rewriter only through its
// public entry points for a fixed number of operations, checks every
// output, and prints every metric named in BENCHMARK.json with its unit;
// the last line of its output is one JSON object. See README.md for the
// workloads, the metrics and how to compare two sets of runs.
//
//	bash bench/run.sh --workload cgc-corpus --seed 0 --seconds 25 --trace 0
//	bash bench/run.sh --seed 0                 # every workload, one process each
//	bash bench/run.sh compare base.jsonl change.jsonl
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"zipr"
	"zipr/internal/isa"
)

// runSeconds is BENCHMARK.json's run_seconds. A run with -seconds
// runSeconds makes each workload's nominal number of operations; other
// values scale that count in proportion. The count never depends on how
// fast the code under test is, so two commits always do the same work.
const runSeconds = 25

// setupReps is how many times a run sets its workload up; setup_s is the
// median, so one slow set-up does not move it.
const setupReps = 3

// options are one run's settings.
type options struct {
	seed int64
	// length is how much the timed phase does: passes over the inputs for
	// a pipeline workload, requests for serve-edits.
	length int
	trace  bool
}

// workload is one benchmark workload: its inputs and load, and the two
// runs it supports.
type workload struct {
	name string
	why  string
	// length is options.length at -seconds runSeconds. The corpus and
	// serve counts leave about 50 samples beyond p95; large-lib's 40 ops
	// are what a repeatable median of a 0.6 s operation needs.
	length int
	// run is the untraced run; traced is the traced one.
	run    func(o options, res *result) (map[string]float64, error)
	traced func(o options, res *result) (map[string]float64, error)
}

var workloads = []workload{
	{
		name:   "cgc-corpus",
		why:    "the paper's CGC evaluation: 62 small ZVM-32 binaries under CFI, where fixed per-rewrite costs dominate",
		length: 16, // passes: 992 ops
		run: func(o options, res *result) (map[string]float64, error) {
			return runPipeline(o, func(s int64) ([]*program, error) { return genCorpus(s, isa.ZVM32) }, res)
		},
		traced: func(o options, res *result) (map[string]float64, error) {
			return tracePipeline(o, func(s int64) ([]*program, error) { return genCorpus(s, isa.ZVM32) }, 2, res)
		},
	},
	{
		name:   "large-lib",
		why:    "the paper's libc robustness run: one 1 MB library, Null transform, weighted arbitration; inference and big-input scans dominate",
		length: 40, // passes over one input: 40 ops
		run: func(o options, res *result) (map[string]float64, error) {
			return runPipeline(o, genLibrary, res)
		},
		traced: func(o options, res *result) (map[string]float64, error) {
			return tracePipeline(o, genLibrary, 5, res)
		},
	},
	{
		name:   "zvm64-corpus",
		why:    "the same corpus plus the veneer binary on ZVM-64: the only run of the fixed-width codec, aligned carves and veneers",
		length: 16, // passes: 1008 ops
		run: func(o options, res *result) (map[string]float64, error) {
			return runPipeline(o, func(s int64) ([]*program, error) { return genCorpus(s, isa.ZVM64) }, res)
		},
		traced: func(o options, res *result) (map[string]float64, error) {
			return tracePipeline(o, func(s int64) ([]*program, error) { return genCorpus(s, isa.ZVM64) }, 2, res)
		},
	},
	{
		name:   "serve-edits",
		why:    "two clients editing programs against one server: RAM and disk hits beside delta applies and pipeline misses",
		length: 1500, // requests
		run:    runServe,
		traced: traceServe,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	name := fs.String("workload", "", "workload to run; empty runs every workload, each in its own process")
	seed := fs.Int64("seed", 0, "workload seed; 0 gives the repository's canonical inputs")
	seconds := fs.Int("seconds", runSeconds, "nominal run length; scales each workload's fixed operation count")
	trace := fs.Int("trace", 0, "1 makes the traced run and prints the per-layer metrics instead")
	out := fs.String("out", "", "append the full result of each run as one JSON line to this file")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "bench: need -seconds >= 1, -trace 0 or 1, and no arguments")
		os.Exit(2)
	}
	var err error
	if *name == "" {
		err = runAll(*seed, *seconds, *trace == 1, *out)
	} else {
		err = runOne(*name, *seed, *seconds, *trace == 1, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errFailedOps makes the process exit non-zero after it has printed a
// result with failed operations or wrong outputs.
var errFailedOps = errors.New("operations failed or outputs were wrong")

// scaledLength is a workload's operation count at -seconds seconds.
func scaledLength(nominal, seconds int) int {
	return max(1, (nominal*seconds+runSeconds/2)/runSeconds)
}

// runOne runs one workload in this process and prints its result.
func runOne(name string, seed int64, seconds int, trace bool, outPath string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	start := time.Now()
	o := options{seed: seed, length: scaledLength(w.length, seconds), trace: trace}
	res := &result{
		Workload: name, Seed: seed, Seconds: seconds, Length: o.length, Trace: trace,
		Extra: map[string]metric{}, Phases: map[string]float64{},
	}
	run, defs := w.run, endToEnd
	if o.trace {
		run, defs = w.traced, perLayer
	}
	vals, err := run(o, res)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if res.Metrics, err = collect(defs, vals); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	res.Phases["total"] = time.Since(start).Seconds()
	// An op left out for the known defect is a failed op of the workload
	// as defined: cb11 alone puts zvm64-corpus at 1/63 at seed 0.
	if n := res.Attempted + res.Skipped; n > 0 {
		res.Extra["error_rate"] = metric{float64(res.Failed+res.Skipped) / float64(n), "ratio"}
	}
	if outPath != "" {
		if err := appendJSONLine(outPath, res); err != nil {
			return err
		}
	}
	report(os.Stdout, res, defs)
	line, err := json.Marshal(res.summary)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct || res.Failed > 0 {
		return errFailedOps
	}
	return nil
}

// runAll runs every workload, each in a child process of its own so
// that one workload's heap never shows in another's memory metrics, and
// prints a combined result whose metric names carry the workload.
func runAll(seed int64, seconds int, trace bool, outPath string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	all := summary{Correct: true, Metrics: map[string]metric{}}
	var failed []string
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", "0"}
		if trace {
			args[len(args)-1] = "1"
		}
		if outPath != "" {
			args = append(args, "-out", outPath)
		}
		var buf bytes.Buffer
		cmd := exec.Command(self, args...)
		cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
		cmd.Stderr = os.Stderr
		runErr := cmd.Run()
		s, perr := lastSummary(buf.Bytes())
		if perr != nil {
			return fmt.Errorf("%s: %v (%v)", w.name, perr, runErr)
		}
		if runErr != nil {
			failed = append(failed, w.name)
		}
		all.Correct = all.Correct && s.Correct
		all.Attempted += s.Attempted
		all.Failed += s.Failed
		for k, m := range s.Metrics {
			all.Metrics[w.name+"/"+k] = m
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if len(failed) > 0 {
		return fmt.Errorf("%v: %w", failed, errFailedOps)
	}
	return nil
}

// lastSummary parses the last non-empty line of out as a summary.
func lastSummary(out []byte) (summary, error) {
	var s summary
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) == 0 || len(lines[len(lines)-1]) == 0 {
		return s, errors.New("no result line")
	}
	err := json.Unmarshal(lines[len(lines)-1], &s)
	return s, err
}

func appendJSONLine(path string, v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// report prints every metric of res by name with its unit, then the
// ungated extras and the failure breakdown.
func report(w io.Writer, res *result, defs []metricDef) {
	bw := bufio.NewWriter(w)
	mode := "untraced"
	if res.Trace {
		mode = "traced"
	}
	fmt.Fprintf(bw, "# %s seed=%d seconds=%d length=%d (%s)\n", res.Workload, res.Seed, res.Seconds, res.Length, mode)
	for _, d := range defs {
		m := res.Metrics[d.name]
		fmt.Fprintf(bw, "%-32s %14.4f %s\n", d.name, m.Value, m.Unit)
	}
	var keys []string
	for k := range res.Extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := res.Extra[k]
		fmt.Fprintf(bw, "  %-30s %14.4f %s\n", k, m.Value, m.Unit)
	}
	for _, k := range []string{"setup", "timed", "verify", "passes", "replay", "total"} {
		if v, ok := res.Phases[k]; ok {
			fmt.Fprintf(bw, "  phase %-24s %14.3f s\n", k, v)
		}
	}
	fmt.Fprintf(bw, "  attempted %d, failed %d %v, left out for the known defect %d\n",
		res.Attempted, res.Failed, res.Failures, res.Skipped)
	for _, p := range res.Problems {
		fmt.Fprintf(bw, "  problem: %s\n", p)
	}
	for _, k := range res.Known {
		fmt.Fprintf(bw, "  known defect: %s\n", k)
	}
	bw.Flush()
}

// repeatSetup runs setup setupReps times, dropping the previous set-up
// with drop and freeing its memory before each, and returns each
// set-up's wall time in seconds.
func repeatSetup(res *result, drop func(), setup func() error) ([]float64, error) {
	var walls []float64
	for r := 0; r < setupReps; r++ {
		drop()
		freeMemory()
		t0 := time.Now()
		if err := setup(); err != nil {
			return nil, err
		}
		walls = append(walls, time.Since(t0).Seconds())
	}
	var sum float64
	for _, s := range walls {
		sum += s
	}
	res.Phases["setup"] = sum
	return walls, nil
}

func (res *result) setTally(t *tally) {
	res.Attempted = t.attempted
	res.Failed = t.failed
	res.Correct = t.failed == 0
	res.Failures = t.byClass
	res.Problems = t.problems
}

// addLatencyExtras reports the sample count and p95, when enough samples
// lie beyond it (all workloads but large-lib); compare gates p95 with
// latency_ms_p50's bound.
func (res *result) addLatencyExtras(lat []float64) {
	res.Extra["latency_samples"] = metric{float64(len(lat)), "count"}
	if v, err := tailPercentile(lat, 95); err == nil {
		res.Extra["latency_ms_p95"] = metric{v, "ms"}
	}
}

// errClass names the failure class of a rewrite error.
func errClass(err error) string {
	if c := zipr.ErrorClass(err); c != "" {
		return c
	}
	return "unclassified"
}

// memDelta is the allocator activity between two readMem samples.
type memDelta struct {
	alloc uint64
	gcs   uint32
	pause time.Duration
}

type memSample struct {
	alloc uint64
	gcs   uint32
	pause uint64
}

func readMem() memSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSample{alloc: m.TotalAlloc, gcs: m.NumGC, pause: m.PauseTotalNs}
}

func (s memSample) since(o memSample) memDelta {
	return memDelta{alloc: s.alloc - o.alloc, gcs: s.gcs - o.gcs, pause: time.Duration(s.pause - o.pause)}
}

// freeMemory collects garbage and returns free pages to the kernel, so
// the harness's own input generation leaves no resident pages behind.
func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// resetPeakRSS collects garbage and clears the kernel's record of this
// process's peak resident set, so that peakRSSMB covers only what runs
// after it.
func resetPeakRSS() error {
	runtime.GC()
	return clearPeakRSS()
}

// clearPeakRSS sets the kernel's record of this process's peak resident
// set to the current resident set.
func clearPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the peak resident set (VmHWM) since resetPeakRSS, in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

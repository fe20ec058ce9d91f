// Command benchjson converts `go test -bench` text output on stdin into
// a JSON report, so benchmark runs (the Makefile's bench target) leave a
// machine-readable artifact instead of a log to grep.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem . | benchjson > BENCH_pipeline.json
//	go test -run '^$' -bench . -benchmem . | benchjson -merge BENCH_pipeline.json -o BENCH_pipeline.json
//	benchjson -compare BenchmarkRewriteFull,BenchmarkRewriteDelta -min 5 BENCH_pipeline.json
//
// Every benchmark result line becomes one object holding the iteration
// count and every reported metric (ns/op, B/op, allocs/op, MB/s, and
// custom b.ReportMetric units such as speedup-x) keyed by unit.
//
// With -merge FILE, the new run is appended to the runs already in FILE
// instead of replacing them, producing a trajectory document
// {"runs": [oldest, ..., newest]} that accumulates one entry per `make
// bench` across the project's history. A FILE in the old single-run
// format is wrapped as the trajectory's first entry; a missing FILE
// starts a fresh trajectory. -o writes the result to a file (atomically
// enough for the Makefile's read-modify-write of the same path) instead
// of stdout.
//
// With -compare BASE,NEW the program reads no stdin: it loads the
// trajectory file named as the positional argument, takes the newest
// run holding both benchmarks, and prints NEW's speedup over BASE from
// their ns/op — or any other reported metric chosen with -metric (e.g.
// -metric pins for a size bar). -min X turns the print into a gate: a
// ratio below X exits nonzero, so `make ci` fails when a perf bar
// regresses.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Result is one benchmark line.
type Result struct {
	Name    string             `json:"name"`
	Iters   int64              `json:"iters"`
	Metrics map[string]float64 `json:"metrics"`
}

// Env is the benchmark context header block.
type Env struct {
	Goos   string `json:"goos,omitempty"`
	Goarch string `json:"goarch,omitempty"`
	Pkg    string `json:"pkg,omitempty"`
	CPU    string `json:"cpu,omitempty"`
}

// Report is one converted run.
type Report struct {
	Env        Env      `json:"env"`
	Benchmarks []Result `json:"benchmarks"`
}

// schemaVersion is the trajectory document revision this benchjson
// reads and writes. Files written before versioning carry no schema
// field and are accepted as the implicit version 1; any other mismatch
// is rejected rather than silently merged, so a trajectory never mixes
// incompatible run shapes.
const schemaVersion = 2

// Trajectory is the accumulated multi-run document -merge maintains.
type Trajectory struct {
	Schema int      `json:"schema,omitempty"`
	Runs   []Report `json:"runs"`
}

func main() {
	mergePath := flag.String("merge", "", "append this run to the runs in `file` (old single-run files are wrapped)")
	outPath := flag.String("o", "", "write output to `file` instead of stdout")
	compare := flag.String("compare", "", "compare two benchmarks (`base,new`) from the trajectory file given as the positional argument")
	minRatio := flag.Float64("min", 0, "with -compare, fail unless the base/new metric ratio is at least this value")
	metric := flag.String("metric", "ns/op", "with -compare, the benchmark metric to compare")
	flag.Parse()
	if *compare != "" {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly one trajectory file argument")
			os.Exit(2)
		}
		if err := runCompare(os.Stdout, flag.Arg(0), *compare, *metric, *minRatio); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Stdin, *mergePath, *outPath); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// runCompare loads the trajectory at path and reports the base/new
// ratio of the chosen metric from the newest run holding both
// benchmarks, failing when it misses minRatio. Earlier runs may predate
// one of the benchmarks, so the scan walks newest-first until a run has
// both. For ns/op the ratio is the conventional speedup; for any other
// metric it is simply base over new, so -min gates "new is smaller".
func runCompare(w io.Writer, path, pair, metric string, minRatio float64) error {
	baseName, newName, ok := strings.Cut(pair, ",")
	if !ok || baseName == "" || newName == "" {
		return fmt.Errorf("-compare wants base,new benchmark names, got %q", pair)
	}
	traj, err := loadTrajectory(path)
	if err != nil {
		return err
	}
	for i := len(traj.Runs) - 1; i >= 0; i-- {
		base, new_ := findBench(traj.Runs[i], baseName), findBench(traj.Runs[i], newName)
		if base == nil || new_ == nil {
			continue
		}
		bv, nv := base.Metrics[metric], new_.Metrics[metric]
		if bv <= 0 || nv <= 0 {
			return fmt.Errorf("run %d: %s missing or zero (%s=%g, %s=%g)", i, metric, baseName, bv, newName, nv)
		}
		ratio := bv / nv
		if metric == "ns/op" {
			fmt.Fprintf(w, "%s / %s = %.2fx speedup (%.4gms vs %.4gms)\n",
				baseName, newName, ratio, bv/1e6, nv/1e6)
		} else {
			fmt.Fprintf(w, "%s / %s = %.4fx %s ratio (%g vs %g)\n",
				baseName, newName, ratio, metric, bv, nv)
		}
		if minRatio > 0 && ratio < minRatio {
			return fmt.Errorf("%s ratio %.4fx is below the %.4fx floor", metric, ratio, minRatio)
		}
		return nil
	}
	return fmt.Errorf("%s: no run contains both %s and %s", path, baseName, newName)
}

// findBench returns the named benchmark from one run, or nil.
func findBench(rep Report, name string) *Result {
	for i := range rep.Benchmarks {
		if rep.Benchmarks[i].Name == name {
			return &rep.Benchmarks[i]
		}
	}
	return nil
}

func run(in io.Reader, mergePath, outPath string) error {
	rep, err := parseRun(in)
	if err != nil {
		return err
	}
	var doc any = rep
	if mergePath != "" {
		traj, err := loadTrajectory(mergePath)
		if err != nil {
			return err
		}
		traj.Runs = append(traj.Runs, *rep)
		traj.Schema = schemaVersion
		doc = traj
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if outPath == "" {
		_, err := os.Stdout.Write(data)
		return err
	}
	// Write through a temp file and rename so a failure mid-write never
	// truncates an existing trajectory (the Makefile merges into the
	// same path it reads from).
	tmp, err := os.CreateTemp(filepath.Dir(outPath), filepath.Base(outPath)+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), outPath)
}

// parseRun converts one `go test -bench` text stream into a Report.
func parseRun(in io.Reader) (*Report, error) {
	rep := &Report{Benchmarks: []Result{}}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Env.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Env.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: ") && rep.Env.Pkg == "":
			// A run over several packages keeps the first one's name.
			rep.Env.Pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.Env.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseLine(line); ok {
				rep.Benchmarks = append(rep.Benchmarks, r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rep, nil
}

// loadTrajectory reads an existing output file in either format: a
// trajectory document keeps its runs, an old single-run report becomes
// the first run, and a missing file yields an empty trajectory.
func loadTrajectory(path string) (*Trajectory, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &Trajectory{}, nil
	}
	if err != nil {
		return nil, err
	}
	if len(bytes.TrimSpace(data)) == 0 {
		// An empty or whitespace-only file (e.g. `touch`ed by a CI cache)
		// is a fresh trajectory, not corruption.
		return &Trajectory{}, nil
	}
	var traj Trajectory
	if err := json.Unmarshal(data, &traj); err == nil && traj.Runs != nil {
		// Schema 0 is a pre-versioning trajectory (implicit version 1):
		// its run shape is compatible, so it upgrades in place on write.
		if traj.Schema != 0 && traj.Schema != schemaVersion {
			return nil, fmt.Errorf("%s has trajectory schema version %d, this benchjson writes version %d: regenerate the file or use a matching benchjson",
				path, traj.Schema, schemaVersion)
		}
		return &traj, nil
	}
	var old Report
	if err := json.Unmarshal(data, &old); err != nil {
		return nil, fmt.Errorf("%s is neither a trajectory nor a single-run report: %w", path, err)
	}
	return &Trajectory{Runs: []Report{old}}, nil
}

// parseLine parses one benchmark result line of the form
//
//	BenchmarkName-8   100   12345 ns/op   1.5 speedup-x   7 allocs/op
//
// into a Result; the -N GOMAXPROCS suffix is stripped from the name.
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Result{}, false
	}
	name := fields[0]
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: name, Iters: iters, Metrics: map[string]float64{}}
	// Remaining fields come in value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		r.Metrics[fields[i+1]] = v
	}
	return r, true
}

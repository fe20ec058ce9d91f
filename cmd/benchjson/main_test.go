package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleRun = `goos: linux
goarch: amd64
pkg: zipr
cpu: Test CPU
BenchmarkPlaceLargeSynth-8   	       5	 227447474 ns/op	         6.545 speedup-x	42336416 B/op	  368387 allocs/op
BenchmarkRewriteNull-8       	      10	  12345678 ns/op	        55.00 MB/s
garbage line that is not a benchmark
PASS
`

func TestParseLine(t *testing.T) {
	r, ok := parseLine("BenchmarkFoo-16   100   12345 ns/op   1.5 speedup-x   7 allocs/op")
	if !ok {
		t.Fatal("parseLine failed")
	}
	if r.Name != "BenchmarkFoo" || r.Iters != 100 {
		t.Fatalf("parsed %+v", r)
	}
	if r.Metrics["ns/op"] != 12345 || r.Metrics["speedup-x"] != 1.5 || r.Metrics["allocs/op"] != 7 {
		t.Fatalf("metrics = %+v", r.Metrics)
	}
	if _, ok := parseLine("BenchmarkBare"); ok {
		t.Fatal("fieldless line should not parse")
	}
}

func TestParseRun(t *testing.T) {
	rep, err := parseRun(strings.NewReader(sampleRun))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Env.Goos != "linux" || rep.Env.CPU != "Test CPU" {
		t.Fatalf("env = %+v", rep.Env)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("benchmarks = %+v", rep.Benchmarks)
	}
	if rep.Benchmarks[0].Name != "BenchmarkPlaceLargeSynth" {
		t.Fatalf("name = %q", rep.Benchmarks[0].Name)
	}
}

// TestParseRunSeveralPackages checks that a run over two packages keeps
// every benchmark of both and the first package's name.
func TestParseRunSeveralPackages(t *testing.T) {
	second := "pkg: zipr/internal/cfg\nBenchmarkBuildLibc-2   5   40000000 ns/op   14545572 B/op   4728 allocs/op\nPASS\n"
	rep, err := parseRun(strings.NewReader(sampleRun + second))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Env.Pkg != "zipr" || len(rep.Benchmarks) != 3 {
		t.Fatalf("pkg %q, %d benchmarks", rep.Env.Pkg, len(rep.Benchmarks))
	}
	if b := rep.Benchmarks[2]; b.Name != "BenchmarkBuildLibc" || b.Metrics["B/op"] != 14545572 || b.Metrics["allocs/op"] != 4728 {
		t.Fatalf("second package's benchmark = %+v", b)
	}
}

func TestMergeAccumulatesTrajectory(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	// First run: no existing file starts a one-run trajectory.
	if err := run(strings.NewReader(sampleRun), out, out); err != nil {
		t.Fatal(err)
	}
	// Second and third runs append.
	for i := 0; i < 2; i++ {
		if err := run(strings.NewReader(sampleRun), out, out); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var traj Trajectory
	if err := json.Unmarshal(data, &traj); err != nil {
		t.Fatal(err)
	}
	if len(traj.Runs) != 3 {
		t.Fatalf("trajectory has %d runs, want 3", len(traj.Runs))
	}
	for _, r := range traj.Runs {
		if len(r.Benchmarks) != 2 || r.Env.Goos != "linux" {
			t.Fatalf("run = %+v", r)
		}
	}
}

func TestMergeWrapsOldSingleRunFormat(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	old := `{"env":{"goos":"linux","cpu":"Old CPU"},"benchmarks":[{"name":"BenchmarkRewriteNull","iters":3,"metrics":{"ns/op":999}}]}`
	if err := os.WriteFile(out, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(strings.NewReader(sampleRun), out, out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var traj Trajectory
	if err := json.Unmarshal(data, &traj); err != nil {
		t.Fatal(err)
	}
	if len(traj.Runs) != 2 {
		t.Fatalf("trajectory has %d runs, want 2 (wrapped old + new)", len(traj.Runs))
	}
	if traj.Runs[0].Env.CPU != "Old CPU" || traj.Runs[0].Benchmarks[0].Metrics["ns/op"] != 999 {
		t.Fatalf("old run not preserved: %+v", traj.Runs[0])
	}
	if traj.Runs[1].Benchmarks[0].Name != "BenchmarkPlaceLargeSynth" {
		t.Fatalf("new run wrong: %+v", traj.Runs[1])
	}
}

// TestMergeMissingFileStartsFresh: merging into a path that does not
// exist yet must start a one-run trajectory, not error.
func TestMergeMissingFileStartsFresh(t *testing.T) {
	out := filepath.Join(t.TempDir(), "does-not-exist-yet.json")
	if err := run(strings.NewReader(sampleRun), out, out); err != nil {
		t.Fatal(err)
	}
	var traj Trajectory
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &traj); err != nil {
		t.Fatal(err)
	}
	if len(traj.Runs) != 1 {
		t.Fatalf("trajectory has %d runs, want 1", len(traj.Runs))
	}
}

// TestMergeEmptyFileStartsFresh: an empty or whitespace-only merge file
// (a CI cache can `touch` the artifact into existence) is a fresh
// trajectory, not corruption.
func TestMergeEmptyFileStartsFresh(t *testing.T) {
	for _, content := range []string{"", "  \n\t\n"} {
		out := filepath.Join(t.TempDir(), "bench.json")
		if err := os.WriteFile(out, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := run(strings.NewReader(sampleRun), out, out); err != nil {
			t.Fatalf("merge into %q file: %v", content, err)
		}
		var traj Trajectory
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &traj); err != nil {
			t.Fatal(err)
		}
		if len(traj.Runs) != 1 {
			t.Fatalf("trajectory has %d runs, want 1", len(traj.Runs))
		}
	}
}

// TestMergeCorruptFilePreservesBytes: a merge into an unparseable file
// must error BEFORE touching the output path — the prior bytes are the
// only copy of the trajectory and must survive the failed run.
func TestMergeCorruptFilePreservesBytes(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	corrupt := []byte(`{"runs": [{"env":` + "\x00 not json")
	if err := os.WriteFile(out, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(strings.NewReader(sampleRun), out, out)
	if err == nil {
		t.Fatal("merging into a corrupt file succeeded")
	}
	data, rerr := os.ReadFile(out)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if !strings.Contains(string(data), "not json") || len(data) != len(corrupt) {
		t.Fatalf("corrupt file was modified by the failed merge: %q", data)
	}
	// The failed run must not leave temp droppings next to the artifact.
	entries, derr := os.ReadDir(filepath.Dir(out))
	if derr != nil {
		t.Fatal(derr)
	}
	if len(entries) != 1 {
		t.Fatalf("stray files after failed merge: %v", entries)
	}
}

func TestNoMergeWritesSingleRun(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	if err := run(strings.NewReader(sampleRun), "", out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("report = %+v", rep)
	}
}

// TestMergeRejectsSchemaMismatch: a trajectory written by a different
// (newer or unknown) schema version must be rejected with a clear
// error, never silently merged — and the file must be left untouched.
func TestMergeRejectsSchemaMismatch(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	foreign := `{"schema": 99, "runs": [{"env":{"goos":"linux"},"benchmarks":[]}]}`
	if err := os.WriteFile(out, []byte(foreign), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(strings.NewReader(sampleRun), out, out)
	if err == nil {
		t.Fatal("schema 99 merged without error")
	}
	for _, want := range []string{"schema version 99", "version 2"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != foreign {
		t.Fatalf("mismatching file was modified: %s", data)
	}
}

// TestMergeStampsAndAcceptsCurrentSchema: merges stamp the current
// schema version, and re-merging a stamped file keeps working.
func TestMergeStampsAndAcceptsCurrentSchema(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	for i := 0; i < 2; i++ {
		if err := run(strings.NewReader(sampleRun), out, out); err != nil {
			t.Fatalf("merge %d: %v", i, err)
		}
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var traj Trajectory
	if err := json.Unmarshal(data, &traj); err != nil {
		t.Fatal(err)
	}
	if traj.Schema != schemaVersion {
		t.Fatalf("written schema = %d, want %d", traj.Schema, schemaVersion)
	}
	if len(traj.Runs) != 2 {
		t.Fatalf("%d runs, want 2", len(traj.Runs))
	}
}

// TestMergeUpgradesLegacyUnversionedTrajectory: a pre-versioning
// trajectory (no schema field) is implicit version 1 and upgrades in
// place rather than being rejected.
func TestMergeUpgradesLegacyUnversionedTrajectory(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	legacy := `{"runs": [{"env":{"goos":"linux","cpu":"Legacy"},"benchmarks":[]}]}`
	if err := os.WriteFile(out, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(strings.NewReader(sampleRun), out, out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var traj Trajectory
	if err := json.Unmarshal(data, &traj); err != nil {
		t.Fatal(err)
	}
	if traj.Schema != schemaVersion || len(traj.Runs) != 2 {
		t.Fatalf("schema %d runs %d, want %d and 2", traj.Schema, len(traj.Runs), schemaVersion)
	}
	if traj.Runs[0].Env.CPU != "Legacy" {
		t.Fatalf("legacy run not preserved: %+v", traj.Runs[0])
	}
}

// compareFixture writes a two-run trajectory: the older run lacks the
// delta benchmark (predates it), the newest carries a 10x pair.
func compareFixture(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bench.json")
	traj := Trajectory{Schema: schemaVersion, Runs: []Report{
		{Benchmarks: []Result{
			{Name: "BenchmarkRewriteFull", Iters: 3, Metrics: map[string]float64{"ns/op": 9e8}},
		}},
		{Benchmarks: []Result{
			{Name: "BenchmarkRewriteFull", Iters: 3, Metrics: map[string]float64{"ns/op": 5e8, "pins": 8364}},
			{Name: "BenchmarkRewriteDelta", Iters: 100, Metrics: map[string]float64{"ns/op": 5e7, "pins": 8281}},
		}},
	}}
	data, err := json.Marshal(traj)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestComparePassesAboveFloor(t *testing.T) {
	path := compareFixture(t)
	var out strings.Builder
	if err := runCompare(&out, path, "BenchmarkRewriteFull,BenchmarkRewriteDelta", "ns/op", 5); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "10.00x speedup") {
		t.Fatalf("compare output = %q, want 10.00x speedup", out.String())
	}
}

func TestCompareFailsBelowFloor(t *testing.T) {
	path := compareFixture(t)
	var out strings.Builder
	err := runCompare(&out, path, "BenchmarkRewriteFull,BenchmarkRewriteDelta", "ns/op", 20)
	if err == nil || !strings.Contains(err.Error(), "below the") {
		t.Fatalf("err = %v, want below-floor failure", err)
	}
}

func TestCompareSkipsRunsMissingABenchmark(t *testing.T) {
	// Reverse the fixture so the NEWEST run lacks the delta benchmark:
	// the scan must fall back to the older run that has both.
	path := compareFixture(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var traj Trajectory
	if err := json.Unmarshal(data, &traj); err != nil {
		t.Fatal(err)
	}
	traj.Runs[0], traj.Runs[1] = traj.Runs[1], traj.Runs[0]
	data, _ = json.Marshal(traj)
	os.WriteFile(path, data, 0o644)
	var out strings.Builder
	if err := runCompare(&out, path, "BenchmarkRewriteFull,BenchmarkRewriteDelta", "ns/op", 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "10.00x") {
		t.Fatalf("compare output = %q, want the run holding both", out.String())
	}
}

func TestCompareCustomMetric(t *testing.T) {
	path := compareFixture(t)
	var out strings.Builder
	// 8364/8281 = 1.0100x: passes a 1.0001 floor, fails a 1.02 floor.
	if err := runCompare(&out, path, "BenchmarkRewriteFull,BenchmarkRewriteDelta", "pins", 1.0001); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "pins ratio") {
		t.Fatalf("compare output = %q, want a pins ratio line", out.String())
	}
	err := runCompare(&out, path, "BenchmarkRewriteFull,BenchmarkRewriteDelta", "pins", 1.02)
	if err == nil || !strings.Contains(err.Error(), "below the") {
		t.Fatalf("err = %v, want below-floor failure", err)
	}
	// The older run has no pins metric at all: selecting it must error,
	// not divide zeros.
	if err := runCompare(&out, path, "BenchmarkRewriteFull,BenchmarkRewriteFull", "watts", 0); err == nil {
		t.Fatal("missing metric accepted")
	}
}

func TestCompareErrors(t *testing.T) {
	path := compareFixture(t)
	var out strings.Builder
	if err := runCompare(&out, path, "BenchmarkRewriteFull", "ns/op", 0); err == nil {
		t.Fatal("malformed pair accepted")
	}
	if err := runCompare(&out, path, "BenchmarkRewriteFull,BenchmarkNope", "ns/op", 0); err == nil {
		t.Fatal("missing benchmark accepted")
	}
	if err := runCompare(&out, filepath.Join(t.TempDir(), "gone.json"), "A,B", "ns/op", 0); err == nil {
		t.Fatal("empty trajectory accepted")
	}
}

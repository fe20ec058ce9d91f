package zipr

// Integration tests for the observability layer: a traced rewrite must
// emit a parseable JSON-lines trace whose spans cover every pipeline
// phase (the -phase-times acceptance surface) and whose counters agree
// with the rewrite report.

import (
	"bytes"
	"strings"
	"testing"

	"zipr/internal/obs"
	"zipr/internal/synth"
)

// tracedRewrite rewrites a mid-size challenge binary with tracing into
// a JSONL buffer and returns the parsed events plus the report.
func tracedRewrite(t *testing.T, tfs ...Transform) ([]obs.Event, *Report) {
	t.Helper()
	seed, profile := synth.CBProfile(10)
	bin, err := synth.Build(seed, profile)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tr := NewTrace(NewJSONLSink(&buf))
	_, report, err := RewriteBinary(bin, Config{Transforms: tfs, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return evs, report
}

func TestTraceJSONLCoversPipelinePhases(t *testing.T) {
	evs, report := tracedRewrite(t, Null(), CFI())

	spans := map[string]obs.Event{}
	counters := map[string]int64{}
	gauges := map[string]int64{}
	hists := map[string]obs.Event{}
	for _, ev := range evs {
		switch ev.Type {
		case "span":
			spans[ev.Path] = ev
		case "counter":
			counters[ev.Name] = ev.Value
		case "gauge":
			gauges[ev.Name] = ev.Value
		case "hist":
			hists[ev.Name] = ev
		}
	}

	// Every pipeline phase the table promises must appear: disassembly,
	// its shared decode table and its two disassemblers, CFG+pin
	// analysis, each transform by name, and the reassembly sub-phases.
	wantPaths := []string{
		"rewrite",
		"rewrite/disassemble",
		"rewrite/disassemble/decode",
		"rewrite/disassemble/linear-sweep",
		"rewrite/disassemble/recursive-traversal",
		"rewrite/disassemble/disambiguate",
		"rewrite/cfg-pins",
		"rewrite/cfg-pins/lift",
		"rewrite/cfg-pins/pin-analysis",
		"rewrite/cfg-pins/partition-functions",
		"rewrite/transform",
		"rewrite/transform/mandatory",
		"rewrite/transform/null",
		"rewrite/transform/cfi",
		"rewrite/transform/normalize",
		"rewrite/reassemble",
		"rewrite/reassemble/pin-planting",
		"rewrite/reassemble/chaining",
		"rewrite/reassemble/sled-construction",
		"rewrite/reassemble/inline-reserve",
		"rewrite/reassemble/dollop-placement",
		"rewrite/reassemble/inline-fixups",
		"rewrite/reassemble/patch-emit",
	}
	for _, path := range wantPaths {
		if _, ok := spans[path]; !ok {
			t.Errorf("trace missing span %q", path)
		}
	}
	if t.Failed() {
		t.Fatalf("have spans: %v", sortedSpanPaths(spans))
	}
	if root := spans["rewrite"]; root.WallNS <= 0 || root.Depth != 0 {
		t.Fatalf("root span = %+v", root)
	}
	if sp := spans["rewrite/disassemble/linear-sweep"]; sp.Depth != 2 {
		t.Fatalf("linear-sweep depth = %d, want 2", sp.Depth)
	}
	if sp := spans["rewrite/disassemble/decode"]; sp.Depth != 2 || sp.StartNS > spans["rewrite/disassemble/linear-sweep"].StartNS {
		t.Fatalf("decode span = %+v, want depth 2 and opened before the linear sweep", sp)
	}

	// Counters must agree with the report the same rewrite returned.
	checks := []struct {
		name string
		want int64
	}{
		{"stats.pinned", int64(report.Stats.Pinned)},
		{"stats.dollops", int64(report.Stats.Dollops)},
		{"stats.chains", int64(report.Stats.Chains)},
		{"stats.sleds", int64(report.Stats.Sleds)},
		{"rewrite.count", 1},
	}
	for _, c := range checks {
		if got := counters[c.name]; got != c.want {
			t.Errorf("counter %s = %d, want %d", c.name, got, c.want)
		}
	}
	if counters["cfg.pins"] == 0 || counters["disasm.insts"] == 0 {
		t.Errorf("analysis counters missing: cfg.pins=%d disasm.insts=%d",
			counters["cfg.pins"], counters["disasm.insts"])
	}
	if rounds := counters["reassemble.worklist.rounds"]; rounds <= 0 {
		t.Errorf("reassemble.worklist.rounds = %d, want > 0", rounds)
	}
	if gauges["rewrite.output-bytes"] != int64(report.OutputSize) {
		t.Errorf("gauge rewrite.output-bytes = %d, want %d",
			gauges["rewrite.output-bytes"], report.OutputSize)
	}
	if h := hists["reassemble.free-range-bytes"]; h.Count == 0 {
		t.Error("free-range fragmentation histogram is empty")
	}
	// Allocator end-state gauges: block count agrees with the counter,
	// fragmentation is a percentage.
	if gauges["reassemble.free-blocks"] != counters["reassemble.free-ranges"] {
		t.Errorf("gauge reassemble.free-blocks = %d, counter says %d",
			gauges["reassemble.free-blocks"], counters["reassemble.free-ranges"])
	}
	if f := gauges["reassemble.fragmentation-pct"]; f < 0 || f > 100 {
		t.Errorf("gauge reassemble.fragmentation-pct = %d, want 0..100", f)
	}

	// Per-placer decision counters carry the placer name.
	if counters["placer.optimized.choose-calls"] == 0 {
		t.Error("placer.optimized.choose-calls missing or zero")
	}
}

func TestPhaseTimesTableCoversPhases(t *testing.T) {
	seed, profile := synth.CBProfile(10)
	bin, err := synth.Build(seed, profile)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tr := NewTrace(NewTableSink(&buf))
	if _, _, err := RewriteBinary(bin, Config{Transforms: []Transform{Null()}, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, phase := range []string{
		"disassemble", "cfg-pins", "null",
		"pin-planting", "dollop-placement", "chaining", "sled-construction", "patch-emit",
		"counters:", "stats.pinned",
	} {
		if !strings.Contains(out, phase) {
			t.Errorf("phase table missing %q", phase)
		}
	}
	if t.Failed() {
		t.Logf("table:\n%s", out)
	}
}

// TestUntracedRewriteMatchesTraced pins down that tracing is purely
// observational: the rewritten image must be byte-identical with and
// without a trace attached.
func TestUntracedRewriteMatchesTraced(t *testing.T) {
	seed, profile := synth.CBProfile(3)
	bin, err := synth.Build(seed, profile)
	if err != nil {
		t.Fatal(err)
	}
	plain, _, err := RewriteBinary(bin.Clone(), Config{Transforms: []Transform{Null()}})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTrace()
	traced, _, err := RewriteBinary(bin.Clone(), Config{Transforms: []Transform{Null()}, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	a, err := plain.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	b, err := traced.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("tracing changed the rewritten image")
	}
}

func sortedSpanPaths(spans map[string]obs.Event) []string {
	paths := make([]string, 0, len(spans))
	for p := range spans {
		paths = append(paths, p)
	}
	return paths
}

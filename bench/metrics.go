package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one reported metric. The names, units and directions
// must match BENCHMARK.json (TestMetricsMatchBenchmarkJSON checks it);
// the regression bounds live only there.
type metricDef struct {
	name   string
	unit   string
	higher bool // higher is better
}

// endToEnd are the metrics a user of the rewriter sees, measured with
// tracing off. Every workload reports every one of them.
var endToEnd = []metricDef{
	{"latency_ms_p50", "ms", false},
	{"ops_per_s", "1/s", true},
	{"alloc_mb_per_op", "MB", false},
	{"max_rss_mb", "MB", false},
	{"size_overhead_pct", "%", false},
	{"exec_overhead_pct", "%", false},
	{"mem_overhead_pct", "%", false},
	{"setup_s", "s", false},
}

// perLayer are the traced run's metrics, one group per module. Times and
// allocations are per rewrite; counts are per rewrite too.
var perLayer = []metricDef{
	{"binfmt.unmarshal_ms", "ms", false},
	{"binfmt.marshal_ms", "ms", false},

	{"disasm.ms", "ms", false},
	{"disasm.linear_sweep_ms", "ms", false},
	{"disasm.recursive_traversal_ms", "ms", false},
	{"disasm.disambiguate_ms", "ms", false},
	{"disasm.alloc_mb", "MB", false},
	{"disasm.par_speedup", "ratio", true},
	{"disasm.serial_ratio", "ratio", true},

	{"infer.share", "ratio", false},
	{"infer.candidates", "count", false},
	{"infer.iterations", "count", false},
	{"disasm.arb_demoted", "count", true},

	{"cfg.ms", "ms", false},
	{"cfg.lift_ms", "ms", false},
	{"cfg.pin_analysis_ms", "ms", false},
	{"cfg.partition_functions_ms", "ms", false},
	{"cfg.alloc_mb", "MB", false},
	{"cfg.par_speedup", "ratio", true},
	{"cfg.pins", "count", false},

	{"transform.ms", "ms", false},
	{"transform.mandatory_ms", "ms", false},
	{"transform.user_ms", "ms", false},
	{"transform.normalize_ms", "ms", false},
	{"transform.insts_added", "count", false},

	{"core.ms", "ms", false},
	{"core.pin_planting_ms", "ms", false},
	{"core.inline_reserve_ms", "ms", false},
	{"core.dollop_placement_ms", "ms", false},
	{"core.inline_fixups_ms", "ms", false},
	{"core.patch_emit_ms", "ms", false},
	{"core.alloc_mb", "MB", false},
	{"core.par_speedup", "ratio", true},
	{"core.dollops", "count", false},
	{"core.splits", "count", false},
	{"core.chains", "count", false},
	{"core.sleds", "count", false},
	{"core.veneers", "count", false},
	{"core.overflow_bytes", "bytes", false},

	{"serve.ram.ms_p50", "ms", false},
	{"serve.disk.ms_p50", "ms", false},
	{"serve.pipeline.ms_p50", "ms", false},
	{"serve.edit.ms_p50", "ms", false},
	{"serve.delta.hit_ratio", "ratio", true},
	{"serve.ram.share", "ratio", true},
	{"serve.disk.share", "ratio", false},
	{"serve.delta.share", "ratio", true},
	{"serve.pipeline.share", "ratio", false},
	{"serve.snapshot.mb", "MB", false},

	{"go.gc_count_per_op", "count", false},
	{"go.gc_pause_ms_per_op", "ms", false},

	{"trace.unaccounted_frac", "ratio", false},
	{"trace.overhead_frac", "ratio", false},
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line the harness prints.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result is everything one run of one workload measured; -out appends it
// as one JSON line and compare reads those lines back.
type result struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Length   int    `json:"length"` // options.length
	Trace    bool   `json:"trace"`
	summary
	// Failures counts failed operations by class.
	Failures map[string]int `json:"failures,omitempty"`
	// Problems holds the first few failure messages.
	Problems []string `json:"problems,omitempty"`
	// Known lists the inputs the rewriter fails on with the known
	// baseline defect (see knownFailure), and Skipped counts the timed ops
	// left out because of them.
	Known   []string `json:"known_failures,omitempty"`
	Skipped int      `json:"skipped_known,omitempty"`
	// Extra holds the numbers BENCHMARK.json does not list: latency_ms_p95
	// and error_rate, which compare gates, and ungated detail such as
	// per-tier latencies.
	Extra map[string]metric `json:"extra,omitempty"`
	// Phases is the wall time of each phase of the run, in seconds.
	Phases map[string]float64 `json:"phases_s"`
}

// maxProblems bounds how many failure messages a result keeps.
const maxProblems = 8

// tally records failed operations. It is not safe for concurrent use.
type tally struct {
	attempted int
	failed    int
	byClass   map[string]int
	problems  []string
}

func (t *tally) fail(class, msg string) {
	t.failed++
	if t.byClass == nil {
		t.byClass = map[string]int{}
	}
	t.byClass[class]++
	if len(t.problems) < maxProblems {
		t.problems = append(t.problems, class+": "+msg)
	}
}

// collect turns measured values into the reported metric set, refusing a
// set that misses a metric, has one the definitions do not name, or
// holds a value that is not a finite number.
func collect(defs []metricDef, vals map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(vals) != len(defs) {
		var extra []string
		for k := range vals {
			if _, ok := out[k]; !ok {
				extra = append(extra, k)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("unlisted metrics measured: %v", extra)
	}
	return out, nil
}

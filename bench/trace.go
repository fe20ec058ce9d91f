package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"zipr"
	"zipr/internal/obs"
)

// traceInput is one input of the traced passes with the output
// zipr.Rewrite gives for it, which every composed output must equal.
type traceInput struct {
	name string
	img  []byte
	cfg  zipr.Config
	ref  []byte
}

// passSums adds up one pass over the inputs.
type passSums struct {
	ops   int
	lc    layerClock
	spans map[string]time.Duration // layer sub-phases (traced pass only)
	count map[string]float64       // layer counters (traced pass only)
	mem   memDelta
}

func (p *passSums) add(lc layerClock) {
	p.ops++
	p.lc.unmarshal += lc.unmarshal
	p.lc.disasm += lc.disasm
	p.lc.cfg += lc.cfg
	p.lc.transform += lc.transform
	p.lc.core += lc.core
	p.lc.marshal += lc.marshal
	p.lc.total += lc.total
	p.lc.disasmAlloc += lc.disasmAlloc
	p.lc.cfgAlloc += lc.cfgAlloc
	p.lc.coreAlloc += lc.coreAlloc
}

// per is a pass total per op, in ms.
func (p *passSums) per(d time.Duration) float64 { return ms(d) / float64(p.ops) }

// Layer counters the traced pass reads after each rewrite: trace counter
// or gauge name -> metric name.
var (
	traceCounters = map[string]string{
		"disasm.arb.demoted":   "disasm.arb_demoted",
		"cfg.pins":             "cfg.pins",
		"stats.dollops":        "core.dollops",
		"stats.splits":         "core.splits",
		"stats.chains":         "core.chains",
		"stats.sleds":          "core.sleds",
		"stats.veneers":        "core.veneers",
		"stats.overflow-bytes": "core.overflow_bytes",
	}
	traceGauges = map[string]string{
		"infer.candidates": "infer.candidates",
		"infer.iterations": "infer.iterations",
	}
)

// The four passes of a traced round.
const (
	passTraced     = iota // spans on, serial disassembly, heap sampled
	passSerial            // the same without tracing: the overhead base
	passConcurrent        // the production configuration, untraced
	passOneProc           // passConcurrent under GOMAXPROCS(1)
	numPasses
)

// runPass rewrites every input once through the composed pipeline.
func runPass(kind int, inputs []traceInput, t *tally) passSums {
	ps := passSums{spans: map[string]time.Duration{}, count: map[string]float64{}}
	if kind == passOneProc {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	runtime.GC()
	m0 := readMem()
	for _, in := range inputs {
		mode := composeMode{serial: kind == passTraced || kind == passSerial, allocs: kind == passTraced}
		if kind == passTraced {
			mode.tr = obs.New()
		}
		out, lc, err := rewriteLayers(in.img, in.cfg, mode)
		t.attempted++
		switch {
		case err != nil:
			t.fail("compose-"+errClass(err), in.name+": "+err.Error())
			continue
		case !bytes.Equal(out, in.ref):
			t.fail("compose-mismatch", in.name+": composed output differs from zipr.Rewrite")
			continue
		}
		ps.add(lc)
		if mode.tr == nil {
			continue
		}
		walls := spanWalls(mode.tr.Snapshot())
		for name, d := range walls {
			ps.spans[name] += d
		}
		for _, tf := range in.cfg.Transforms {
			ps.spans["transform.user"] += walls[tf.Name()]
			ps.count["transform.insts_added"] += float64(mode.tr.Counter("transform." + tf.Name() + ".insts-delta"))
		}
		for c, name := range traceCounters {
			ps.count[name] += float64(mode.tr.Counter(c))
		}
		for g, name := range traceGauges {
			ps.count[name] += float64(mode.tr.Gauge(g))
		}
	}
	ps.mem = readMem().since(m0)
	return ps
}

// layerVals turns one round's four passes into the per-layer metrics.
func layerVals(p [numPasses]passSums) map[string]float64 {
	a, b, c, one := &p[passTraced], &p[passSerial], &p[passConcurrent], &p[passOneProc]
	n := float64(a.ops)
	ratio := func(x, y time.Duration) float64 { return float64(x) / float64(y) }
	v := map[string]float64{
		"binfmt.unmarshal_ms": a.per(a.lc.unmarshal),
		"binfmt.marshal_ms":   a.per(a.lc.marshal),

		"disasm.ms":                     a.per(a.lc.disasm),
		"disasm.linear_sweep_ms":        a.per(a.spans["linear-sweep"]),
		"disasm.recursive_traversal_ms": a.per(a.spans["recursive-traversal"]),
		"disasm.disambiguate_ms":        a.per(a.spans["disambiguate"]),
		"disasm.alloc_mb":               mb(a.lc.disasmAlloc) / n,
		"disasm.par_speedup":            ratio(one.lc.disasm, c.lc.disasm),
		"disasm.serial_ratio":           ratio(b.lc.disasm, c.lc.disasm),
		"infer.share":                   ratio(a.spans["inference"], a.lc.disasm),

		"cfg.ms":                     a.per(a.lc.cfg),
		"cfg.lift_ms":                a.per(a.spans["lift"]),
		"cfg.pin_analysis_ms":        a.per(a.spans["pin-analysis"]),
		"cfg.partition_functions_ms": a.per(a.spans["partition-functions"]),
		"cfg.alloc_mb":               mb(a.lc.cfgAlloc) / n,
		"cfg.par_speedup":            ratio(one.lc.cfg, c.lc.cfg),

		"transform.ms":           a.per(a.lc.transform),
		"transform.mandatory_ms": a.per(a.spans["mandatory"]),
		"transform.user_ms":      a.per(a.spans["transform.user"]),
		"transform.normalize_ms": a.per(a.spans["normalize"]),

		"core.ms":                  a.per(a.lc.core),
		"core.pin_planting_ms":     a.per(a.spans["pin-planting"]),
		"core.inline_reserve_ms":   a.per(a.spans["inline-reserve"]),
		"core.dollop_placement_ms": a.per(a.spans["dollop-placement"]),
		"core.inline_fixups_ms":    a.per(a.spans["inline-fixups"]),
		"core.patch_emit_ms":       a.per(a.spans["patch-emit"]),
		"core.alloc_mb":            mb(a.lc.coreAlloc) / n,
		"core.par_speedup":         ratio(one.lc.core, c.lc.core),

		"go.gc_count_per_op":    float64(c.mem.gcs) / float64(c.ops),
		"go.gc_pause_ms_per_op": ms(c.mem.pause) / float64(c.ops),

		"trace.unaccounted_frac": 1 - ratio(a.lc.unmarshal+a.lc.disasm+a.lc.cfg+a.lc.transform+a.lc.core+a.lc.marshal, a.lc.total),
		"trace.overhead_frac":    ratio(a.lc.total, b.lc.total) - 1,
	}
	for name, sum := range a.count {
		v[name] = sum / n
	}
	return v
}

// layerPasses makes rounds rounds of the four passes and reports each
// per-layer metric as the median over rounds of its per-op value.
func layerPasses(inputs []traceInput, rounds int, t *tally) (map[string]float64, error) {
	perRound := map[string][]float64{}
	for r := 0; r < rounds; r++ {
		var p [numPasses]passSums
		for i := 0; i < numPasses; i++ {
			k := i
			if r%2 == 1 {
				k = numPasses - 1 - i // alternate the order so drift favours no pass
			}
			p[k] = runPass(k, inputs, t)
			if p[k].ops == 0 {
				return nil, fmt.Errorf("traced pass %d: every composed rewrite failed: %v", k, t.problems)
			}
		}
		for name, v := range layerVals(p) {
			perRound[name] = append(perRound[name], v)
		}
	}
	vals := map[string]float64{}
	for name, vs := range perRound {
		vals[name] = median(vs)
	}
	return vals, nil
}

// tracePipeline is the traced run of a pipeline workload: the composed
// passes over its inputs, then a scripted replay of the same inputs
// through a server.
func tracePipeline(o options, gen func(seed int64) ([]*program, error), rounds int, res *result) (map[string]float64, error) {
	t0 := time.Now()
	set, err := setupPipeline(gen, o.seed)
	if err != nil {
		return nil, err
	}
	res.Phases["setup"] = time.Since(t0).Seconds()
	res.Known = set.known
	var inputs []traceInput
	for i, p := range set.progs {
		if set.refs[i] != nil {
			inputs = append(inputs, traceInput{p.name, p.img, p.cfg, set.refs[i]})
		}
	}
	var t tally
	t1 := time.Now()
	vals, err := layerPasses(inputs, rounds, &t)
	if err != nil {
		return nil, err
	}
	res.Phases["passes"] = time.Since(t1).Seconds()

	t2 := time.Now()
	main, restart, err := scriptRequests(set.progs, o.seed)
	if err != nil {
		return nil, err
	}
	sv, err := replayScript(main, restart, &t, res.Extra)
	if err != nil {
		return nil, err
	}
	res.Phases["replay"] = time.Since(t2).Seconds()
	for k, v := range sv {
		vals[k] = v
	}
	res.setTally(&t)
	return vals, nil
}

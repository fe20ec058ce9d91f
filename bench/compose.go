package main

import (
	"fmt"
	"runtime"
	"time"

	"zipr"
	"zipr/internal/binfmt"
	"zipr/internal/cfg"
	"zipr/internal/core"
	"zipr/internal/disasm"
	"zipr/internal/isa"
	"zipr/internal/layout"
	"zipr/internal/obs"
	"zipr/internal/transform"
)

// layerClock is one composed rewrite's time in each layer call, as the
// harness measures it around the call, plus the bytes allocated inside
// the three heavy layers when allocation sampling is on.
type layerClock struct {
	unmarshal, disasm, cfg, transform, core, marshal, total time.Duration
	disasmAlloc, cfgAlloc, coreAlloc                        uint64
}

// composeMode selects how a composed rewrite runs.
type composeMode struct {
	tr     *obs.Trace // the layers' own spans and counters; nil for none
	serial bool       // disasm.Options.Serial: sub-phase times then add up
	allocs bool       // sample the heap around each heavy layer
}

// rewriteLayers is zipr.Rewrite composed from the layer entry points:
// binfmt.Unmarshal, disasm.DisassembleOpts, cfg.BuildOpts,
// transform.ApplyTraced, core.Reassemble and Binary.Marshal. It mirrors
// the pipeline's weighted-to-two-way fallback, so for the configurations
// the workloads use (optimized layout, no snapshot, no fault injection)
// its output is byte-identical to zipr.Rewrite's; the traced run checks
// that on every output.
func rewriteLayers(img []byte, c zipr.Config, m composeMode) ([]byte, layerClock, error) {
	var lc layerClock
	start := time.Now()
	bin, err := binfmt.Unmarshal(img)
	lc.unmarshal = time.Since(start)
	if err != nil {
		return nil, lc, err
	}
	arch, err := isa.ByName(c.ISA)
	if err != nil {
		return nil, lc, err
	}
	arb := disasm.ArbTwoWay
	if c.Arbitration == zipr.ArbitrationWeighted {
		arb = disasm.ArbWeighted
	}
	out, err := layersOnce(bin, c, arch, arb, m, &lc)
	if err != nil && arb == disasm.ArbWeighted {
		ferr := err
		if out, err = layersOnce(bin, c, arch, disasm.ArbTwoWay, m, &lc); err != nil {
			err = ferr
		}
	}
	if err != nil {
		return nil, lc, err
	}
	t := time.Now()
	data, err := out.Marshal()
	lc.marshal = time.Since(t)
	lc.total = time.Since(start)
	return data, lc, err
}

// layersOnce is one attempt of the pipeline under one arbitration mode.
// Heap samples are taken outside the timed windows, so only the total
// sees their cost.
func layersOnce(bin *binfmt.Binary, c zipr.Config, arch isa.Arch, arb disasm.Arbitration, m composeMode, lc *layerClock) (*binfmt.Binary, error) {
	alloc := func() uint64 {
		if !m.allocs {
			return 0
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc
	}

	a0 := alloc()
	t := time.Now()
	agg, err := disasm.DisassembleOpts(bin, disasm.Options{Serial: m.serial, Arbitration: arb, Trace: m.tr, Arch: arch})
	lc.disasm += time.Since(t)
	lc.disasmAlloc += alloc() - a0
	if err != nil {
		return nil, fmt.Errorf("disasm: %w", err)
	}

	a0 = alloc()
	t = time.Now()
	prog, err := cfg.BuildOpts(bin, agg, cfg.Options{Trace: m.tr})
	lc.cfg += time.Since(t)
	lc.cfgAlloc += alloc() - a0
	if err != nil {
		return nil, fmt.Errorf("cfg: %w", err)
	}

	t = time.Now()
	err = transform.ApplyTraced(prog, m.tr, c.Transforms...)
	lc.transform += time.Since(t)
	if err != nil {
		return nil, fmt.Errorf("transform: %w", err)
	}

	a0 = alloc()
	t = time.Now()
	res, err := core.Reassemble(prog, core.Options{Placer: layout.Optimized{}, Trace: m.tr})
	lc.core += time.Since(t)
	lc.coreAlloc += alloc() - a0
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return res.Binary, nil
}

// spanWalls sums the wall time of every span in snap by name.
func spanWalls(snap *obs.Snapshot) map[string]time.Duration {
	walls := map[string]time.Duration{}
	var walk func([]*obs.Span)
	walk = func(spans []*obs.Span) {
		for _, s := range spans {
			walls[s.Name] += s.Wall
			walk(s.Children)
		}
	}
	walk(snap.Spans)
	return walls
}

package core_test

import (
	"testing"

	"zipr/internal/cfg"
	"zipr/internal/cgcsim"
	"zipr/internal/core"
	"zipr/internal/disasm"
	"zipr/internal/ir"
	"zipr/internal/isa"
	"zipr/internal/synth"
)

// linearObstacle is nextObstacle as a scan of every fixed range, the
// oracle for its binary search.
func linearObstacle(a uint32, pins []*ir.Instruction, i int, fixed []ir.Range, textEnd uint32) uint32 {
	limit := textEnd
	if i+1 < len(pins) && pins[i+1].OrigAddr < limit {
		limit = pins[i+1].OrigAddr
	}
	for _, f := range fixed {
		if f.Start >= a && f.Start < limit {
			limit = f.Start
		}
	}
	return limit
}

// TestNextObstacleMatchesScan: at every pin of every corpus program on
// both ISAs, and one byte past each, the binary search finds the
// obstacle the scan of every fixed range finds.
func TestNextObstacleMatchesScan(t *testing.T) {
	for _, arch := range []isa.Arch{isa.ZVM32, isa.ZVM64} {
		cbs, err := cgcsim.Corpus(synth.CorpusSize, arch)
		if err != nil {
			t.Fatal(err)
		}
		calls, fixedHits := 0, 0
		for _, cb := range cbs {
			agg, err := disasm.DisassembleOpts(cb.Bin, disasm.Options{Arch: arch})
			if err != nil {
				t.Fatalf("%s: %v", cb.Name, err)
			}
			p, err := cfg.BuildOpts(cb.Bin, agg, cfg.Options{})
			if err != nil {
				t.Fatalf("%s: %v", cb.Name, err)
			}
			pins, end := p.PinnedInsts(), p.TextRange().End
			for i, pin := range pins {
				for _, a := range []uint32{pin.OrigAddr, pin.OrigAddr + 1} {
					got := core.NextObstacle(a, pins, i, p.Fixed, end)
					if want := linearObstacle(a, pins, i, p.Fixed, end); got != want {
						t.Fatalf("%s/%s: pin %d at %#x: obstacle %#x, scan %#x", arch.Name(), cb.Name, i, a, got, want)
					}
					calls++
					if ir.InRanges(p.Fixed, got) {
						fixedHits++
					}
				}
			}
		}
		t.Logf("%s: %d lookups, %d ending at a fixed range", arch.Name(), calls, fixedHits)
		if fixedHits == 0 {
			t.Fatalf("%s: no lookup ended at a fixed range; the comparison is vacuous", arch.Name())
		}
	}
}

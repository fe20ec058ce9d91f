package infer

import (
	"testing"

	"zipr/internal/isa"
	"zipr/internal/synth"
)

// analyzeAllocBound is the most allocations one Analyze may make,
// whatever the text size: the per-offset arrays, bitsets and the CSR
// flow relation are allocated once each, and only the worklists grow by
// doubling. A regression to per-offset slices costs hundreds of
// thousands.
const analyzeAllocBound = 128

// TestAnalyzeAllocsBounded checks that inference's allocation count
// stays under a constant at two library scales on both ISAs: it must
// not grow with the text. The decode table is built outside the count,
// as disassembly builds it once for all three disassemblers; that is
// also why ZVM-64, whose decoder renders a message for each
// non-canonical word it rejects, is held to the same bound.
func TestAnalyzeAllocsBounded(t *testing.T) {
	for _, arch := range []isa.Arch{isa.ZVM32, isa.ZVM64} {
		for _, scale := range []float64{0.05, 0.2} {
			bin, err := synth.BuildArch(11, synth.LibcProfile(scale), arch)
			if err != nil {
				t.Fatalf("%s scale %v: %v", arch.Name(), scale, err)
			}
			text := bin.Text()
			tab := isa.DecodeText(arch, text.Data, text.VAddr)
			var res *Result
			allocs := testing.AllocsPerRun(1, func() { res = Analyze(bin, tab) })
			if res.Stats().Candidates == 0 {
				t.Fatalf("%s scale %v: no candidates", arch.Name(), scale)
			}
			t.Logf("%s scale %v: %d text bytes, %d candidates, %v allocs",
				arch.Name(), scale, len(text.Data), res.Stats().Candidates, allocs)
			if allocs > analyzeAllocBound {
				t.Errorf("%s scale %v: Analyze made %v allocs, want <= %d", arch.Name(), scale, allocs, analyzeAllocBound)
			}
		}
	}
}

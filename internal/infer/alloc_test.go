package infer

import (
	"testing"

	"zipr/internal/synth"
)

// analyzeAllocBound is the most allocations one Analyze may make,
// whatever the text size: the per-offset arrays and the CSR flow
// relation are allocated once each, and only the worklists grow by
// doubling. A regression to per-offset slices or per-rejection errors
// costs hundreds of thousands.
const analyzeAllocBound = 128

// TestAnalyzeAllocsBounded checks that inference's allocation count
// stays under a constant at two library scales: it must not grow with
// the text. ZVM-32 only: ZVM-64 still renders a message naming the word
// for each non-canonical encoding it rejects.
func TestAnalyzeAllocsBounded(t *testing.T) {
	for _, scale := range []float64{0.05, 0.2} {
		bin, err := synth.Build(11, synth.LibcProfile(scale))
		if err != nil {
			t.Fatalf("scale %v: %v", scale, err)
		}
		var res *Result
		allocs := testing.AllocsPerRun(1, func() { res = Analyze(bin, nil) })
		if res.Stats().Candidates == 0 {
			t.Fatalf("scale %v: no candidates", scale)
		}
		t.Logf("scale %v: %d text bytes, %d candidates, %v allocs",
			scale, len(bin.Text().Data), res.Stats().Candidates, allocs)
		if allocs > analyzeAllocBound {
			t.Errorf("scale %v: Analyze made %v allocs, want <= %d", scale, allocs, analyzeAllocBound)
		}
	}
}

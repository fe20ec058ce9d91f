package infer

import (
	"runtime"
	"testing"

	"zipr/internal/isa"
	"zipr/internal/synth"
)

// analyzeAllocBound is the most allocations one Analyze may make,
// whatever the text size: the per-candidate and per-byte arrays,
// bitsets and the CSR flow relation are allocated once each, and only
// small worklists grow by doubling. A regression to per-offset slices
// costs hundreds of thousands.
const analyzeAllocBound = 128

// analyzeBytesPerTextByte is the most heap one Analyze may allocate per
// text byte: 7.9-10.2 on these inputs. The per-byte data belief and its
// rule cost 2; every other relation is per candidate (on ZVM-32 about
// one offset in four), and the candidate facts, the flow relation and
// the worklists come to about 33 bytes per candidate. With the target,
// the CSR index and the beliefs sized per text byte, the same inputs
// allocated 19.7-22.1.
const analyzeBytesPerTextByte = 12

// TestAnalyzeAllocsBounded checks that inference's allocation count
// stays under a constant, and its allocated bytes under a per-text-byte
// bound, at two library scales on both ISAs. The decode table is built
// outside the count, as disassembly builds it once for all three
// disassemblers.
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
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			res = Analyze(bin, tab)
			runtime.ReadMemStats(&m1)
			per := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(len(text.Data))
			t.Logf("%s scale %v: %d text bytes, %d candidates, %v allocs, %.1f bytes per text byte",
				arch.Name(), scale, len(text.Data), res.Stats().Candidates, allocs, per)
			if allocs > analyzeAllocBound {
				t.Errorf("%s scale %v: Analyze made %v allocs, want <= %d", arch.Name(), scale, allocs, analyzeAllocBound)
			}
			if per > analyzeBytesPerTextByte {
				t.Errorf("%s scale %v: Analyze allocated %.1f bytes per text byte, want <= %d", arch.Name(), scale, per, analyzeBytesPerTextByte)
			}
		}
	}
}

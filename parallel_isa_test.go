package zipr

// Fixed-width determinism: the parallel pipeline's byte-identity
// guarantees (parallel_test.go) restated under ZVM-64, where the
// decode table holds only 4-byte-aligned words and reassembly takes the
// aligned-carve/veneer paths the default ISA never exercises. Both
// fan-out levels are covered: concurrent disassembly against the
// serial run, and the full rewrite repeated across goroutines against a
// single serial reference.

import (
	"bytes"
	"sync"
	"testing"

	"zipr/internal/cgcsim"
	"zipr/internal/isa"
	"zipr/internal/synth"
)

func TestDisassembleSerialMatchesParallelZVM64(t *testing.T) {
	for _, idx := range []int{0, 5, 10, synth.PathologicalCB} {
		seed, profile := synth.CBProfile(idx)
		bin, err := synth.BuildArch(seed, profile, isa.ZVM64)
		if err != nil {
			t.Fatal(err)
		}
		checkSerialMatchesParallel(t, idx, bin, isa.ZVM64)
	}
	// The veneer-stress program of the ZVM-64 benchmark corpus, the one
	// corpus input whose text the generator does not lay out.
	vcb, err := cgcsim.VeneerCB(isa.ZVM64)
	if err != nil {
		t.Fatal(err)
	}
	checkSerialMatchesParallel(t, -2, vcb.Bin, isa.ZVM64)
}

// TestRewriteConcurrentDeterministicZVM64 rewrites the same fixed-width
// inputs from eight goroutines at once and demands every result be
// byte-identical (and Stats-identical) to a serial reference rewrite —
// the property the sharded daemon and the corpus evaluator rely on,
// here pinned for the ISA whose reassembler shares veneer and alignment
// state across a rewrite.
func TestRewriteConcurrentDeterministicZVM64(t *testing.T) {
	cbs := make([]cgcsim.CB, 0, 3)
	for _, idx := range []int{1, 4, 9} {
		cb, err := cgcsim.CBArch(idx, isa.ZVM64)
		if err != nil {
			t.Fatal(err)
		}
		cbs = append(cbs, cb)
	}
	for _, lay := range []LayoutKind{LayoutOptimized, LayoutDiversity} {
		for _, cb := range cbs {
			input, err := cb.Bin.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			cfg := func() Config {
				return Config{Transforms: []Transform{CFI()}, Layout: lay, Seed: 42, ISA: "zvm64"}
			}
			refOut, refRep, err := Rewrite(input, cfg())
			if err != nil {
				t.Fatalf("%s/%s: serial reference: %v", cb.Name, lay, err)
			}
			var wg sync.WaitGroup
			outs := make([][]byte, 8)
			stats := make([]Stats, 8)
			errs := make([]error, 8)
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					out, rep, err := Rewrite(input, cfg())
					if err != nil {
						errs[g] = err
						return
					}
					outs[g], stats[g] = out, rep.Stats
				}(g)
			}
			wg.Wait()
			for g := 0; g < 8; g++ {
				if errs[g] != nil {
					t.Fatalf("%s/%s: goroutine %d: %v", cb.Name, lay, g, errs[g])
				}
				if !bytes.Equal(outs[g], refOut) {
					t.Fatalf("%s/%s: goroutine %d produced different bytes than the serial reference", cb.Name, lay, g)
				}
				if stats[g] != refRep.Stats {
					t.Fatalf("%s/%s: goroutine %d Stats differ:\n%+v\nvs\n%+v", cb.Name, lay, g, stats[g], refRep.Stats)
				}
			}
		}
	}
}

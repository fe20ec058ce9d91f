package cfg

import (
	"testing"

	"zipr/internal/disasm"
	"zipr/internal/ir"
	"zipr/internal/isa"
	"zipr/internal/synth"
)

// checkAtMatchesInsts fails unless p.At names, at every text address,
// the live node of p.Insts whose original address it is, and nil where
// none is. That reference is a plain map; At answers from its rank index
// over instruction starts and its override.
func checkAtMatchesInsts(t *testing.T, name string, p *ir.Program) {
	t.Helper()
	ref := make(map[uint32]*ir.Instruction, len(p.Insts))
	for _, n := range p.Insts {
		if n.OrigAddr == 0 {
			continue
		}
		if prev := ref[n.OrigAddr]; prev != nil {
			t.Fatalf("%s: %s and %s both start at %#x", name, prev, n, n.OrigAddr)
		}
		ref[n.OrigAddr] = n
	}
	text := p.TextRange()
	for a := text.Start - 8; a < text.End+8; a++ {
		if got, want := p.At(a), ref[a]; got != want {
			t.Fatalf("%s: At(%#x) = %v, want %v", name, a, got, want)
		}
	}
}

// TestAtMatchesInstsCorpus is the differential test of the IR's address
// index: on every corpus program under both ISAs, At agrees with a map
// built from p.Insts at every text address, once right after lifting
// and once after deleting every third pinned instruction that falls
// through, where Normalize re-points each deleted address to the node
// that takes over its pin.
func TestAtMatchesInstsCorpus(t *testing.T) {
	for _, arch := range []isa.Arch{isa.ZVM32, isa.ZVM64} {
		repointed := 0
		for i := 0; i < synth.CorpusSize; i++ {
			seed, prof := synth.CBProfile(i)
			bin, err := synth.BuildArch(seed, prof, arch)
			if err != nil {
				t.Fatal(err)
			}
			agg, err := disasm.DisassembleOpts(bin, disasm.Options{Arch: arch})
			if err != nil {
				t.Fatal(err)
			}
			p, err := BuildOpts(bin, agg, Options{})
			if err != nil {
				t.Fatal(err)
			}
			name := arch.Name() + "/" + prof.Name
			checkAtMatchesInsts(t, name, p)

			k := 0
			for _, n := range p.Insts {
				if !n.Pinned || n.Fallthrough == nil {
					continue
				}
				if k++; k%3 != 0 {
					continue
				}
				if err := p.Delete(n); err != nil {
					t.Fatal(err)
				}
				repointed++
			}
			if err := p.Normalize(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			checkAtMatchesInsts(t, name+" after Normalize", p)
		}
		if repointed == 0 {
			t.Fatalf("%s: no pinned instruction deleted; the second check proved nothing", arch.Name())
		}
	}
}

package core

import (
	"testing"

	"zipr/internal/cfg"
	"zipr/internal/disasm"
	"zipr/internal/synth"
	"zipr/internal/transform"
)

// reassembleAllocsPerInst is the most allocations one Reassemble may make
// per IR instruction. The placement table, the chain marks and the emit
// order are ID-indexed slices sized once, and emit encodes straight into
// the image, so what remains is per-pin and per-dollop bookkeeping. With
// a pointer-keyed placement map, a sorted copy of it and a fresh slice per
// encoded instruction, the same input made about 1.25 per instruction.
const reassembleAllocsPerInst = 0.05

// TestReassembleAllocsBounded checks that reassembly of a library-sized
// program allocates a small fraction of its instruction count.
func TestReassembleAllocsBounded(t *testing.T) {
	bin, err := synth.Build(11, synth.LibcProfile(0.05))
	if err != nil {
		t.Fatal(err)
	}
	agg, err := disasm.DisassembleOpts(bin, disasm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := cfg.BuildOpts(bin, agg, cfg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := transform.ApplyTraced(p, nil, transform.Null{}); err != nil {
		t.Fatal(err)
	}
	var res *Result
	allocs := testing.AllocsPerRun(1, func() {
		if res, err = Reassemble(p, Options{Placer: optPlacer{}}); err != nil {
			t.Fatal(err)
		}
	})
	perInst := allocs / float64(len(p.Insts))
	t.Logf("%d instructions, %d dollops, %v allocs (%.3f per instruction)",
		len(p.Insts), res.Stats.Dollops, allocs, perInst)
	if perInst > reassembleAllocsPerInst {
		t.Errorf("Reassemble made %.3f allocs per instruction, want <= %v", perInst, reassembleAllocsPerInst)
	}
}

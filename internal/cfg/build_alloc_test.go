package cfg

import (
	"testing"

	"zipr/internal/disasm"
	"zipr/internal/ir"
	"zipr/internal/synth"
)

// buildAllocsPerInst is the most allocations one BuildOpts may make per
// IR instruction. Decoded nodes come from one slab, the address index is
// one pointer-free table, and function bodies share one backing slice,
// so what remains is per-function and per-warning bookkeeping. With an
// address map and one heap object per node, the same input made about
// 1.12 per instruction.
const buildAllocsPerInst = 0.25

// TestBuildAllocsBounded checks that lifting a library-sized program
// allocates a small fraction of its instruction count.
func TestBuildAllocsBounded(t *testing.T) {
	bin, err := synth.Build(11, synth.LibcProfile(0.05))
	if err != nil {
		t.Fatal(err)
	}
	agg, err := disasm.DisassembleOpts(bin, disasm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var p *ir.Program
	allocs := testing.AllocsPerRun(1, func() {
		if p, err = BuildOpts(bin, agg, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	perInst := allocs / float64(len(p.Insts))
	t.Logf("%d instructions, %d functions, %v allocs (%.3f per instruction)",
		len(p.Insts), len(p.Functions), allocs, perInst)
	if perInst > buildAllocsPerInst {
		t.Errorf("BuildOpts made %.3f allocs per instruction, want <= %v", perInst, buildAllocsPerInst)
	}
}

var buildSink *ir.Program

// BenchmarkBuildLibc measures IR construction alone on the about 1 MB
// library that the large-lib workload rewrites; disassembly runs once
// outside the clock.
func BenchmarkBuildLibc(b *testing.B) {
	bin, err := synth.Build(11, synth.LibcProfile(1.0))
	if err != nil {
		b.Fatal(err)
	}
	agg, err := disasm.DisassembleOpts(bin, disasm.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(bin.Text().Data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buildSink, err = BuildOpts(bin, agg, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

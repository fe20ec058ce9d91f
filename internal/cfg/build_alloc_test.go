package cfg

import (
	"runtime"
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

// buildBytesPerTextByte is the most heap one BuildOpts may allocate per
// byte of text: 15.7 now, 17.7 under the race detector, where the
// instruction list outgrows its reservation once more. The nodes are
// most of it (a slab Instruction
// and a pointer in Insts per decoded instruction, on ZVM-32 about one
// per four and a half text bytes), the address index is a bit per text
// byte plus its rank prefix, and the function partition's marks are a
// bit per node. With a 4-byte index slot per text byte, a collected
// operand-pin slice and byte-wide function marks, the same input
// allocated 20.8.
const buildBytesPerTextByte = 18

// TestBuildBytesBounded checks the heap that lifting a library-sized
// program allocates, per byte of its text.
func TestBuildBytesBounded(t *testing.T) {
	bin, err := synth.Build(11, synth.LibcProfile(0.05))
	if err != nil {
		t.Fatal(err)
	}
	agg, err := disasm.DisassembleOpts(bin, disasm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := len(bin.Text().Data)
	run := func() {
		if _, err := BuildOpts(bin, agg, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm up: first-use allocations are not per-run costs
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	run()
	runtime.ReadMemStats(&m1)
	per := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
	t.Logf("%d text bytes, %d bytes allocated (%.1f per text byte)", n, m1.TotalAlloc-m0.TotalAlloc, per)
	if per > buildBytesPerTextByte {
		t.Errorf("BuildOpts allocated %.1f bytes per text byte, want <= %v", per, buildBytesPerTextByte)
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

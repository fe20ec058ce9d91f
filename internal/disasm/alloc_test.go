package disasm

import (
	"runtime"
	"testing"

	"zipr/internal/synth"
)

// disasmBytesPerTextByte is the most heap one weighted DisassembleOpts
// may allocate per text byte: 14.0 now, 14.4 under the race detector.
// The decode table stores 9 bytes per candidate (on ZVM-32 about one
// offset in four), inference about 10, and every per-byte or
// per-candidate set one bit. With a byte-wide class array beside the
// coverage bitsets, the same input allocated 15.2 bytes per text byte;
// with the decode table and inference's candidate facts sized per text
// byte, 34.4; with a decode per disassembler, an instruction copy per
// set and byte-wide flags, 46 with a warm scratch pool and 66 with a
// cold one.
const disasmBytesPerTextByte = 15

// TestDisassembleAllocsBounded checks the heap one weighted disassembly
// of a library-sized program allocates, per byte of its text.
func TestDisassembleAllocsBounded(t *testing.T) {
	bin, err := synth.Build(11, synth.LibcProfile(0.05))
	if err != nil {
		t.Fatal(err)
	}
	n := len(bin.Text().Data)
	run := func() {
		if _, err := DisassembleOpts(bin, Options{Arbitration: ArbWeighted}); err != nil {
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
	if per > disasmBytesPerTextByte {
		t.Errorf("DisassembleOpts allocated %.1f bytes per text byte, want <= %v", per, disasmBytesPerTextByte)
	}
}

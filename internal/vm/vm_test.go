package vm

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"zipr/internal/isa"
)

const textBase uint32 = 0x00100000

// prog encodes a sequence of instructions into machine code.
func prog(t *testing.T, insts ...isa.Inst) []byte {
	t.Helper()
	var out []byte
	for _, in := range insts {
		b, err := isa.ZVM32.Encode(in)
		if err != nil {
			t.Fatalf("encode %+v: %v", in, err)
		}
		out = append(out, b...)
	}
	return out
}

// runProg maps code at textBase (plus an optional data page) and runs it.
func runProg(t *testing.T, code []byte, opts ...Option) (Result, error) {
	t.Helper()
	m := New(opts...)
	if err := m.Map(textBase, len(code), PermR|PermX); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteMem(textBase, code); err != nil {
		t.Fatal(err)
	}
	m.SetPC(textBase)
	return m.Run()
}

// exit emits the terminate(code) sequence.
func exit(code int32) []isa.Inst {
	return []isa.Inst{
		{Op: isa.OpMovI, Rd: 1, Imm: code},
		{Op: isa.OpMovI, Rd: 0, Imm: SysTerminate},
		{Op: isa.OpSyscall},
	}
}

func TestTerminateExitCode(t *testing.T) {
	res, err := runProg(t, prog(t, exit(42)...))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.ExitCode != 42 {
		t.Fatalf("exit code = %d, want 42", res.ExitCode)
	}
	if res.Steps != 3 {
		t.Fatalf("steps = %d, want 3", res.Steps)
	}
}

// TestFetchAcrossPageBoundary runs a jump whose last bytes lie on a page
// nothing else touches: the fetch reads across the boundary, and both
// pages count as touched. With the second page not executable, the
// fetch stops at the boundary and the truncated decode faults.
func TestFetchAcrossPageBoundary(t *testing.T) {
	jmpAt := textBase + PageSize - 2
	jmp := isa.Inst{Op: isa.OpJmp32, Imm: int32(textBase) - int32(jmpAt+5)}
	code := make([]byte, PageSize-2)
	copy(code, prog(t, exit(5)...))
	code = append(code, prog(t, jmp)...)
	for _, tc := range []struct {
		name  string
		perm2 Perm
	}{{"executable", PermR | PermX}, {"not executable", PermR}} {
		t.Run(tc.name, func(t *testing.T) {
			m := New()
			if err := m.Map(textBase, PageSize, PermR|PermX); err != nil {
				t.Fatal(err)
			}
			if err := m.Map(textBase+PageSize, PageSize, tc.perm2); err != nil {
				t.Fatal(err)
			}
			if err := m.WriteMem(textBase, code); err != nil {
				t.Fatal(err)
			}
			m.SetPC(jmpAt)
			res, err := m.Run()
			if tc.perm2&PermX == 0 {
				var f *Fault
				if !errors.As(err, &f) || !strings.Contains(f.Reason, "decode") {
					t.Fatalf("Run: %v, want a decode fault", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.ExitCode != 5 || res.Steps != 4 {
				t.Fatalf("exit %d after %d steps, want 5 after 4", res.ExitCode, res.Steps)
			}
			if res.PagesTouched != 2 {
				t.Fatalf("pages touched = %d, want 2", res.PagesTouched)
			}
		})
	}
}

func TestArithmeticAndFlags(t *testing.T) {
	// r2 = 7*6; r3 = r2 % 10; if r3 == 2 exit(1) else exit(0)
	insts := []isa.Inst{
		{Op: isa.OpMovI, Rd: 2, Imm: 7},
		{Op: isa.OpMovI, Rd: 3, Imm: 6},
		{Op: isa.OpMul, Rd: 2, Rs: 3},
		{Op: isa.OpMovI, Rd: 4, Imm: 10},
		{Op: isa.OpMod, Rd: 2, Rs: 4},
		{Op: isa.OpCmpI8, Rd: 2, Imm: 2},
		{Op: isa.OpJcc8, Cc: isa.CcZ, Imm: 8}, // skip exit(0): movi(6)+movi(6)... compute below
	}
	// exit(0) is 6+6+1 = 13 bytes; jump over first two movi (12 bytes)? Use labels via explicit sizes:
	// Simpler: jz +13 over exit(0) to exit(1).
	insts[6].Imm = 13
	insts = append(insts, exit(0)...)
	insts = append(insts, exit(1)...)
	res, err := runProg(t, prog(t, insts...))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.ExitCode != 1 {
		t.Fatalf("exit = %d, want 1 (42 %% 10 == 2)", res.ExitCode)
	}
}

func TestLoopAndBranches(t *testing.T) {
	// sum 1..10 via loop, exit(sum)
	insts := []isa.Inst{
		{Op: isa.OpMovI, Rd: 2, Imm: 0},  // sum
		{Op: isa.OpMovI, Rd: 3, Imm: 10}, // i
		// loop:
		{Op: isa.OpAdd, Rd: 2, Rs: 3},           // sum += i
		{Op: isa.OpDec, Rd: 3},                  // i--
		{Op: isa.OpJcc8, Cc: isa.CcNZ, Imm: -7}, // back to loop (3+2+2 bytes)
		{Op: isa.OpMov, Rd: 1, Rs: 2},
		{Op: isa.OpMovI, Rd: 0, Imm: SysTerminate},
		{Op: isa.OpSyscall},
	}
	res, err := runProg(t, prog(t, insts...))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.ExitCode != 55 {
		t.Fatalf("exit = %d, want 55", res.ExitCode)
	}
}

func TestCallRetAndStack(t *testing.T) {
	// call f; exit(r2). f: movi r2, 9; ret
	body := []isa.Inst{
		{Op: isa.OpCall, Imm: 13}, // over exit(code in r2) = 3+6+1... compute: mov(3)+movi(6)+syscall(1)=10? We use mov r1,r2;movi;syscall = 3+6+1=10
	}
	body[0].Imm = 10
	body = append(body,
		isa.Inst{Op: isa.OpMov, Rd: 1, Rs: 2},
		isa.Inst{Op: isa.OpMovI, Rd: 0, Imm: SysTerminate},
		isa.Inst{Op: isa.OpSyscall},
		// f:
		isa.Inst{Op: isa.OpMovI, Rd: 2, Imm: 9},
		isa.Inst{Op: isa.OpRet},
	)
	res, err := runProg(t, prog(t, body...))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.ExitCode != 9 {
		t.Fatalf("exit = %d, want 9", res.ExitCode)
	}
}

func TestIndirectCallAndJump(t *testing.T) {
	// r5 = &f (via lea), callr r5; then r6 = &end, jmpr r6.
	insts := []isa.Inst{
		{Op: isa.OpLea, Rd: 5, Imm: 0}, // patched below
		{Op: isa.OpCallR, Rd: 5},
		{Op: isa.OpMov, Rd: 1, Rs: 2},
		{Op: isa.OpMovI, Rd: 0, Imm: SysTerminate},
		{Op: isa.OpSyscall},
		// f:
		{Op: isa.OpMovI, Rd: 2, Imm: 77},
		{Op: isa.OpRet},
	}
	// lea is 6 bytes; f starts after 6+2+3+6+1 = 18 bytes; disp = 18 - 6 = 12.
	insts[0].Imm = 12
	res, err := runProg(t, prog(t, insts...))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.ExitCode != 77 {
		t.Fatalf("exit = %d, want 77", res.ExitCode)
	}
}

func TestTransmitReceive(t *testing.T) {
	// Read 4 bytes from stdin into stack buffer, transmit them back, exit 0.
	insts := []isa.Inst{
		{Op: isa.OpMov, Rd: 2, Rs: isa.SP},
		{Op: isa.OpAddI, Rd: 2, Imm: -64}, // buf = sp-64
		{Op: isa.OpMovI, Rd: 0, Imm: SysReceive},
		{Op: isa.OpMovI, Rd: 1, Imm: 0},
		{Op: isa.OpMovI, Rd: 3, Imm: 4},
		{Op: isa.OpSyscall},
		{Op: isa.OpMovI, Rd: 0, Imm: SysTransmit},
		{Op: isa.OpMovI, Rd: 1, Imm: 1},
		{Op: isa.OpSyscall},
	}
	insts = append(insts, exit(0)...)
	res, err := runProg(t, prog(t, insts...), WithStdin(strings.NewReader("ping")))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !bytes.Equal(res.Output, []byte("ping")) {
		t.Fatalf("output = %q, want %q", res.Output, "ping")
	}
}

func TestAllocateAndMemoryAccounting(t *testing.T) {
	// allocate 2 pages, store to both, exit. Touched pages must include
	// text, stack (none used), and 2 heap pages.
	insts := []isa.Inst{
		{Op: isa.OpMovI, Rd: 0, Imm: SysAllocate},
		{Op: isa.OpMovI, Rd: 1, Imm: 2 * PageSize},
		{Op: isa.OpSyscall},
		{Op: isa.OpMov, Rd: 5, Rs: 0},
		{Op: isa.OpMovI, Rd: 6, Imm: 123},
		{Op: isa.OpStore, Rd: 5, Rs: 6, Imm: 0},
		{Op: isa.OpStore, Rd: 5, Rs: 6, Imm: PageSize},
		{Op: isa.OpLoad, Rd: 7, Rs: 5, Imm: PageSize},
	}
	insts = append(insts, exit(0)...)
	res, err := runProg(t, prog(t, insts...))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// 1 text page + 1 stack page (terminate pushes nothing; but exit uses no stack) -> expect 1 text + 2 heap = 3
	if res.PagesTouched != 3 {
		t.Fatalf("pages touched = %d, want 3 (1 text + 2 heap)", res.PagesTouched)
	}
	if res.MaxRSSBytes() != 3*PageSize {
		t.Fatalf("MaxRSSBytes = %d", res.MaxRSSBytes())
	}
}

func TestRandomDeterministic(t *testing.T) {
	code := prog(t, append([]isa.Inst{
		{Op: isa.OpMov, Rd: 5, Rs: isa.SP},
		{Op: isa.OpAddI, Rd: 5, Imm: -32},
		{Op: isa.OpMovI, Rd: 0, Imm: SysRandom},
		{Op: isa.OpMov, Rd: 1, Rs: 5},
		{Op: isa.OpMovI, Rd: 2, Imm: 8},
		{Op: isa.OpSyscall},
		{Op: isa.OpMovI, Rd: 0, Imm: SysTransmit},
		{Op: isa.OpMovI, Rd: 1, Imm: 1},
		{Op: isa.OpMov, Rd: 2, Rs: 5},
		{Op: isa.OpMovI, Rd: 3, Imm: 8},
		{Op: isa.OpSyscall},
	}, exit(0)...)...)
	r1, err := runProg(t, code, WithRandomSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := runProg(t, code, WithRandomSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	r3, err := runProg(t, code, WithRandomSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r1.Output, r2.Output) {
		t.Fatal("same seed produced different random streams")
	}
	if bytes.Equal(r1.Output, r3.Output) {
		t.Fatal("different seeds produced identical random streams")
	}
	if len(r1.Output) != 8 {
		t.Fatalf("random output length = %d, want 8", len(r1.Output))
	}
}

func TestFaults(t *testing.T) {
	tests := []struct {
		name   string
		insts  []isa.Inst
		substr string
	}{
		{"hlt", []isa.Inst{{Op: isa.OpHlt}}, "hlt"},
		{"div zero", []isa.Inst{{Op: isa.OpMovI, Rd: 1, Imm: 5}, {Op: isa.OpDiv, Rd: 1, Rs: 2}}, "divide"},
		{"mod zero", []isa.Inst{{Op: isa.OpMod, Rd: 1, Rs: 2}}, "modulo"},
		{"unmapped load", []isa.Inst{{Op: isa.OpLoad, Rd: 1, Rs: 2, Imm: 0}}, "unmapped"},
		{"write to text", []isa.Inst{
			{Op: isa.OpMovI, Rd: 1, Imm: int32(textBase)},
			{Op: isa.OpStore, Rd: 1, Rs: 2, Imm: 0},
		}, "permission"},
		{"jump to unmapped", []isa.Inst{
			{Op: isa.OpMovI, Rd: 1, Imm: 0x7000},
			{Op: isa.OpJmpR, Rd: 1},
		}, "non-executable"},
		{"exec data (stack)", []isa.Inst{
			{Op: isa.OpMovI, Rd: 1, Imm: int32(int64(StackTop) - 16 - (1 << 32))},
			{Op: isa.OpJmpR, Rd: 1},
		}, "non-executable"},
		{"bad syscall", []isa.Inst{{Op: isa.OpMovI, Rd: 0, Imm: 99}, {Op: isa.OpSyscall}}, "syscall"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := runProg(t, prog(t, tt.insts...))
			var f *Fault
			if !errors.As(err, &f) {
				t.Fatalf("error = %v, want *Fault", err)
			}
			if !strings.Contains(f.Reason, tt.substr) {
				t.Fatalf("fault reason %q does not contain %q", f.Reason, tt.substr)
			}
		})
	}
}

func TestStepLimit(t *testing.T) {
	// Infinite loop must hit the budget.
	code := prog(t, isa.Inst{Op: isa.OpJmp8, Imm: -2})
	_, err := runProg(t, code, WithMaxSteps(1000))
	if !errors.Is(err, ErrStepLimit) {
		t.Fatalf("error = %v, want ErrStepLimit", err)
	}
}

func TestMapErrors(t *testing.T) {
	m := New()
	if err := m.Map(0x1001, 10, PermR); err == nil {
		t.Fatal("unaligned map should fail")
	}
	if err := m.Map(0x1000, 10, PermR); err != nil {
		t.Fatal(err)
	}
	if err := m.Map(0x1000, 10, PermR); err == nil {
		t.Fatal("double map should fail")
	}
	if err := m.WriteMem(0x9000, []byte{1}); err == nil {
		t.Fatal("WriteMem to unmapped should fail")
	}
	if _, err := m.ReadMem(0x9000, 1); err == nil {
		t.Fatal("ReadMem of unmapped should fail")
	}
}

func TestSledExecution(t *testing.T) {
	// The paper's sled: entering at any 0x68 byte pushes a distinguishing
	// word and re-synchronizes at the nops. Verify entry at offsets 0..3
	// pushes the expected values and reaches the code after the sled.
	sled := []byte{0x68, 0x68, 0x68, 0x68, 0x90, 0x90, 0x90, 0x90}
	wantTop := []uint32{0x90686868, 0x90906868, 0x90909068, 0x90909090}
	// After the sled: pop r2; mov r1, r2; terminate.
	tail := prog(t,
		isa.Inst{Op: isa.OpPop, Rd: 2},
		isa.Inst{Op: isa.OpMov, Rd: 1, Rs: 2},
		isa.Inst{Op: isa.OpMovI, Rd: 0, Imm: SysTerminate},
		isa.Inst{Op: isa.OpSyscall},
	)
	code := append(append([]byte{}, sled...), tail...)
	for entry := 0; entry < 4; entry++ {
		m := New()
		if err := m.Map(textBase, len(code), PermR|PermX); err != nil {
			t.Fatal(err)
		}
		if err := m.WriteMem(textBase, code); err != nil {
			t.Fatal(err)
		}
		m.SetPC(textBase + uint32(entry))
		res, err := m.Run()
		if err != nil {
			t.Fatalf("entry %d: %v", entry, err)
		}
		if uint32(res.ExitCode) != wantTop[entry] {
			t.Errorf("entry %d: pushed %#x, want %#x", entry, uint32(res.ExitCode), wantTop[entry])
		}
	}
}

func TestPushPopRoundTrip(t *testing.T) {
	insts := []isa.Inst{
		{Op: isa.OpMovI, Rd: 3, Imm: 0x1234},
		{Op: isa.OpPush, Rd: 3},
		{Op: isa.OpPushI8, Imm: -1},
		{Op: isa.OpPushI32, Imm: 0x55},
		{Op: isa.OpPop, Rd: 4}, // 0x55
		{Op: isa.OpPop, Rd: 5}, // 0xFFFFFFFF
		{Op: isa.OpPop, Rd: 6}, // 0x1234
		{Op: isa.OpMov, Rd: 1, Rs: 6},
		{Op: isa.OpMovI, Rd: 0, Imm: SysTerminate},
		{Op: isa.OpSyscall},
	}
	res, err := runProg(t, prog(t, insts...))
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 0x1234 {
		t.Fatalf("exit = %#x, want 0x1234", res.ExitCode)
	}
}

func TestShiftOps(t *testing.T) {
	insts := []isa.Inst{
		{Op: isa.OpMovI, Rd: 2, Imm: 1},
		{Op: isa.OpShlI, Rd: 2, Imm: 10}, // 1024
		{Op: isa.OpShrI, Rd: 2, Imm: 3},  // 128
		{Op: isa.OpMovI, Rd: 3, Imm: 2},
		{Op: isa.OpShl, Rd: 2, Rs: 3}, // 512
		{Op: isa.OpShr, Rd: 2, Rs: 3}, // 128
		{Op: isa.OpMov, Rd: 1, Rs: 2},
		{Op: isa.OpMovI, Rd: 0, Imm: SysTerminate},
		{Op: isa.OpSyscall},
	}
	res, err := runProg(t, prog(t, insts...))
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 128 {
		t.Fatalf("exit = %d, want 128", res.ExitCode)
	}
}

func TestLoadPCReadsEmbeddedData(t *testing.T) {
	// loadpc r2, [data]; exit(r2). Data word placed after code.
	insts := []isa.Inst{
		{Op: isa.OpLoadPC, Rd: 2, Imm: 0}, // patched
		{Op: isa.OpMov, Rd: 1, Rs: 2},
		{Op: isa.OpMovI, Rd: 0, Imm: SysTerminate},
		{Op: isa.OpSyscall},
	}
	// data at offset 6+3+6+1 = 16; loadpc next = 6 -> disp = 10
	insts[0].Imm = 10
	code := prog(t, insts...)
	code = append(code, 0xEF, 0xBE, 0xAD, 0xDE)
	res, err := runProg(t, code)
	if err != nil {
		t.Fatal(err)
	}
	if uint32(res.ExitCode) != 0xDEADBEEF {
		t.Fatalf("exit = %#x, want 0xDEADBEEF", uint32(res.ExitCode))
	}
}

func TestUnsignedVsSignedConditions(t *testing.T) {
	// -1 unsigned is > 1, signed is < 1.
	insts := []isa.Inst{
		{Op: isa.OpMovI, Rd: 2, Imm: -1},
		{Op: isa.OpMovI, Rd: 3, Imm: 1},
		{Op: isa.OpCmp, Rd: 2, Rs: 3},
		{Op: isa.OpJcc8, Cc: isa.CcB, Imm: 13}, // taken? no: 0xFFFFFFFF not below 1
	}
	insts = append(insts, exit(1)...) // not-below path => exit(1)
	insts = append(insts, exit(2)...)
	res, err := runProg(t, prog(t, insts...))
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 1 {
		t.Fatalf("unsigned: exit = %d, want 1", res.ExitCode)
	}
	insts[3].Cc = isa.CcL // signed less: taken => exit(2)
	res, err = runProg(t, prog(t, insts...))
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 2 {
		t.Fatalf("signed: exit = %d, want 2", res.ExitCode)
	}
}

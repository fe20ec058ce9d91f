package core

import (
	"encoding/binary"
	"fmt"
	"testing"

	"zipr/internal/ir"
	"zipr/internal/isa"
	"zipr/internal/vm"
)

// encode32 returns the ZVM-32 encoding of in, failing t on error.
func encode32(t *testing.T, in isa.Inst) []byte {
	t.Helper()
	b, err := isa.ZVM32.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSimulateSledEntrySmall(t *testing.T) {
	// Span 4 (the paper's example): each entry pushes exactly one word.
	want := []uint32{0x90686868, 0x90906868, 0x90909068, 0x90909090}
	for k := 0; k < 4; k++ {
		words := simulateSledEntry(4, k)
		if len(words) != 1 || words[0] != want[k] {
			t.Errorf("span 4 entry %d: words = %#x, want [%#x]", k, words, want[k])
		}
	}
}

func TestSimulateSledEntryLong(t *testing.T) {
	// Span 7: entry 0 pushes twice (positions 0 and 5), entry 1 twice
	// (1, 6), entry 2 once... position p >= span stops.
	words := simulateSledEntry(7, 0)
	if len(words) != 2 {
		t.Fatalf("span 7 entry 0 pushes %d, want 2", len(words))
	}
	if words[0] != sledWord68 {
		t.Fatalf("first pushed word = %#x, want all-68", words[0])
	}
	words = simulateSledEntry(7, 2)
	if len(words) != 1 {
		t.Fatalf("span 7 entry 2 pushes %d, want 1", len(words))
	}
}

// runSled builds a complete sled+dispatch in VM memory and enters it at
// the given entry offset; each entry's dispatch target reports its index
// via the exit code.
func runSled(t *testing.T, span int, entryOffsets []int, enter int) int32 {
	t.Helper()
	const base = 0x00100000
	// Dispatch targets: tiny exit stubs, one per entry.
	p := ir.NewProgram(newTestBin(base, 0x1000))
	var entries []sledEntry
	targetInsts := make([]*ir.Instruction, len(entryOffsets))
	for i, off := range entryOffsets {
		n := p.NewInst(isa.Inst{Op: isa.OpMovI, Rd: 1, Imm: int32(100 + i)})
		n2 := p.NewInst(isa.Inst{Op: isa.OpMovI, Rd: 0, Imm: 1})
		n3 := p.NewInst(isa.Inst{Op: isa.OpSyscall})
		n.Fallthrough = n2
		n2.Fallthrough = n3
		targetInsts[i] = n
		entries = append(entries, sledEntry{
			offset: off,
			target: n,
			words:  simulateSledEntry(span, off),
		})
	}
	dispatch, refs, err := genDispatch(isa.ZVM32, entries)
	if err != nil {
		t.Fatalf("genDispatch: %v", err)
	}

	// Memory image: [sled span+4][jmp32 dispatch][dispatch][exit stubs].
	image := sledBytes(span)
	jmpAt := len(image)
	image = append(image, make([]byte, 5)...)
	dispatchOff := len(image)
	image = append(image, dispatch...)
	stubOff := make([]int, len(entries))
	for i := range entries {
		stubOff[i] = len(image)
		image = append(image, encode32(t, isa.Inst{Op: isa.OpMovI, Rd: 1, Imm: int32(100 + i)})...)
		image = append(image, encode32(t, isa.Inst{Op: isa.OpMovI, Rd: 0, Imm: 1})...)
		image = append(image, encode32(t, isa.Inst{Op: isa.OpSyscall})...)
	}
	// Patch the sled tail jump and the dispatch's target jumps.
	putJmp := func(at, dest int) {
		disp := int32(dest - (at + 5))
		copy(image[at:], encode32(t, isa.Inst{Op: isa.OpJmp32, Imm: disp}))
	}
	putJmp(jmpAt, dispatchOff)
	for _, ref := range refs {
		for i, n := range targetInsts {
			if ref.target == n {
				putJmp(dispatchOff+ref.off, stubOff[i])
			}
		}
	}

	m := vm.New(vm.WithMaxSteps(10_000))
	if err := m.Map(base, len(image), vm.PermR|vm.PermX); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteMem(base, image); err != nil {
		t.Fatal(err)
	}
	// Seed the stack with a sentinel so pop-heuristics have caller data.
	m.SetReg(isa.SP, vm.StackTop-8)
	if err := m.WriteMem(vm.StackTop-8, []byte{0xEF, 0xBE, 0xAD, 0xDE}); err != nil {
		t.Fatal(err)
	}
	m.SetPC(base + uint32(enter))
	res, err := m.Run()
	if err != nil {
		t.Fatalf("vm: %v", err)
	}
	return res.ExitCode
}

func TestSledDispatchAllEntriesSmall(t *testing.T) {
	// Dense run of 2..5 consecutive pinned addresses (the sizes the
	// paper observed): every entry must dispatch to its own target.
	for span := 2; span <= 5; span++ {
		offsets := make([]int, span)
		for i := range offsets {
			offsets[i] = i
		}
		for enter := 0; enter < span; enter++ {
			got := runSled(t, span, offsets, enter)
			if got != int32(100+enter) {
				t.Errorf("span %d entry %d dispatched to %d, want %d", span, enter, got, 100+enter)
			}
		}
	}
}

func TestSledDispatchSparseEntries(t *testing.T) {
	// Absorbed sleds have non-entry 0x68 bytes between entries.
	offsets := []int{0, 3}
	for i, enter := range offsets {
		got := runSled(t, 4, offsets, enter)
		if got != int32(100+i) {
			t.Errorf("sparse entry %d dispatched to %d, want %d", enter, got, 100+i)
		}
	}
}

func TestSledDispatchLong(t *testing.T) {
	// Span 8 exercises multi-push entries and the depth probing.
	offsets := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for enter := 0; enter < 8; enter++ {
		got := runSled(t, 8, offsets, enter)
		if got != int32(100+enter) {
			t.Errorf("span 8 entry %d dispatched to %d, want %d", enter, got, 100+enter)
		}
	}
}

func TestSledPreservesRegisters(t *testing.T) {
	// Registers other than the syscall argument regs must survive
	// dispatch. Build a sled whose target checks r5.
	const base = 0x00100000
	p := ir.NewProgram(newTestBin(base, 0x1000))
	target := p.NewInst(isa.Inst{Op: isa.OpMov, Rd: 1, Rs: 5})
	t2 := p.NewInst(isa.Inst{Op: isa.OpMovI, Rd: 0, Imm: 1})
	t3 := p.NewInst(isa.Inst{Op: isa.OpSyscall})
	target.Fallthrough = t2
	t2.Fallthrough = t3
	entries := []sledEntry{{offset: 0, target: target, words: simulateSledEntry(2, 0)}}
	dispatch, refs, err := genDispatch(isa.ZVM32, entries)
	if err != nil {
		t.Fatal(err)
	}
	image := sledBytes(2)
	jmpAt := len(image)
	image = append(image, make([]byte, 5)...)
	dOff := len(image)
	image = append(image, dispatch...)
	sOff := len(image)
	image = append(image, encode32(t, isa.Inst{Op: isa.OpMov, Rd: 1, Rs: 5})...)
	image = append(image, encode32(t, isa.Inst{Op: isa.OpMovI, Rd: 0, Imm: 1})...)
	image = append(image, encode32(t, isa.Inst{Op: isa.OpSyscall})...)
	putJmp := func(at, dest int) {
		copy(image[at:], encode32(t, isa.Inst{Op: isa.OpJmp32, Imm: int32(dest - (at + 5))}))
	}
	putJmp(jmpAt, dOff)
	putJmp(dOff+refs[0].off, sOff)

	m := vm.New(vm.WithMaxSteps(10_000))
	if err := m.Map(base, len(image), vm.PermR|vm.PermX); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteMem(base, image); err != nil {
		t.Fatal(err)
	}
	m.SetReg(5, 0x5A5A)
	m.SetReg(0, 0x11) // must be restored before the target runs
	m.SetPC(base)
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 0x5A5A {
		t.Fatalf("r5 corrupted: exit = %#x", res.ExitCode)
	}
}

func TestGenDispatchErrors(t *testing.T) {
	if _, _, err := genDispatch(isa.ZVM32, nil); err == nil {
		t.Fatal("empty sled should fail")
	}
	bad := []sledEntry{{offset: 0, words: nil}}
	if _, _, err := genDispatch(isa.ZVM32, bad); err == nil {
		t.Fatal("entry with no pushes should fail")
	}
	dup := []sledEntry{
		{offset: 0, words: []uint32{1, 2}},
		{offset: 5, words: []uint32{9, 2}},
	}
	if _, _, err := genDispatch(isa.ZVM32, dup); err == nil {
		t.Fatal("indistinguishable entries should fail")
	}
}

func TestSledBytesShape(t *testing.T) {
	b := sledBytes(3)
	if len(b) != 7 {
		t.Fatalf("len = %d", len(b))
	}
	for i := 0; i < 3; i++ {
		if b[i] != isa.PushI32Byte {
			t.Fatalf("byte %d = %#x", i, b[i])
		}
	}
	for i := 3; i < 7; i++ {
		if b[i] != isa.NopByte {
			t.Fatalf("byte %d = %#x", i, b[i])
		}
	}
	// The simulation must agree with what a real decode of the bytes
	// pushes (cross-check one entry).
	words := simulateSledEntry(3, 1)
	win := append(append([]byte{}, b[2:5]...), isa.NopByte)
	if words[0] != binary.LittleEndian.Uint32(win) {
		t.Fatalf("simulation mismatch: %#x", words[0])
	}
}

var _ = fmt.Sprintf // keep fmt for debugging helpers

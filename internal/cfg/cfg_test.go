package cfg

import (
	"strings"
	"testing"

	"zipr/internal/asm"
	"zipr/internal/binfmt"
	"zipr/internal/disasm"
	"zipr/internal/ir"
	"zipr/internal/isa"
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

func build(t *testing.T, src string) *ir.Program {
	t.Helper()
	bin, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	agg, err := disasm.Disassemble(bin)
	if err != nil {
		t.Fatalf("disassemble: %v", err)
	}
	p, err := Build(bin, agg)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return p
}

func TestEntryPinnedAndLinked(t *testing.T) {
	p := build(t, `
.text 0x00100000
main:
    movi r2, 1
    jmp done
    movi r2, 2
done:
    movi r0, 1
    movi r1, 0
    syscall
`)
	if p.Entry == nil || !p.Entry.Pinned {
		t.Fatal("entry missing or not pinned")
	}
	// Find the jmp and check its logical link.
	var jmp *ir.Instruction
	for _, n := range p.Insts {
		if n.Inst.Op == isa.OpJmp32 {
			jmp = n
		}
	}
	if jmp == nil {
		t.Fatal("no jmp node")
	}
	if jmp.Target == nil {
		t.Fatal("jmp has no logical target")
	}
	if jmp.Target.OrigAddr == 0 || jmp.Target.Inst.Op != isa.OpMovI {
		t.Fatalf("jmp target = %s", jmp.Target)
	}
	if jmp.Fallthrough != nil {
		t.Fatal("jmp must not have a fallthrough")
	}
	// Straight-line fallthroughs linked.
	if p.Entry.Fallthrough == nil {
		t.Fatal("entry missing fallthrough")
	}
}

func TestDataPointerPinsJumpTableTargets(t *testing.T) {
	p := build(t, `
.text 0x00100000
main:
    movi r4, tab
    load r4, [r4+4]
    jmpr r4
c0: movi r1, 0
    jmp done
c1: movi r1, 1
    jmp done
done:
    movi r0, 1
    syscall
.data 0x00200000
tab: .word c0, c1
`)
	pins := p.PinnedInsts()
	// Entry + c0 + c1 pinned (c0/c1 via the data scan).
	if len(pins) < 3 {
		t.Fatalf("pins = %d, want >= 3", len(pins))
	}
	var c0, c1 bool
	for _, n := range pins {
		if n.Inst.Op == isa.OpMovI && n.Inst.Imm == 0 && n != p.Entry {
			c0 = true
		}
		if n.Inst.Op == isa.OpMovI && n.Inst.Imm == 1 {
			c1 = true
		}
	}
	if !c0 || !c1 {
		t.Fatalf("jump-table targets not pinned (c0=%v c1=%v)", c0, c1)
	}
}

func TestImmediatePinning(t *testing.T) {
	p := build(t, `
.text 0x00100000
main:
    movi r4, target    ; absolute immediate naming code
    callr r4
    movi r0, 1
    movi r1, 0
    syscall
target:
    ret
`)
	found := false
	for _, n := range p.PinnedInsts() {
		if n.Inst.Op == isa.OpRet {
			found = true
		}
	}
	if !found {
		t.Fatal("movi-immediate code pointer target not pinned")
	}
	// The movi itself must NOT have a Target link (value must stay).
	for _, n := range p.Insts {
		if n.Inst.Op == isa.OpMovI && n.Target != nil {
			t.Fatal("movi immediates must not be rewritten")
		}
	}
}

func TestLeaMaterializesCodeAddress(t *testing.T) {
	p := build(t, `
.text 0x00100000
main:
    lea r4, target
    callr r4
    movi r0, 1
    movi r1, 0
    syscall
target:
    ret
`)
	var lea *ir.Instruction
	for _, n := range p.Insts {
		if n.Inst.Op == isa.OpLea {
			lea = n
		}
	}
	if lea == nil || lea.Target == nil {
		t.Fatal("lea to code must get a logical Target")
	}
	if lea.Target.Inst.Op != isa.OpRet {
		t.Fatalf("lea target = %s", lea.Target)
	}
}

func TestLeaToDataKeepsAbsolute(t *testing.T) {
	p := build(t, `
.text 0x00100000
main:
    lea r4, buf
    movi r0, 1
    movi r1, 0
    syscall
.data 0x00200000
buf: .space 8
`)
	for _, n := range p.Insts {
		if n.Inst.Op == isa.OpLea {
			if n.Target != nil || n.AbsTarget != 0x00200000 {
				t.Fatalf("lea to data: target=%v abs=%#x", n.Target, n.AbsTarget)
			}
			return
		}
	}
	t.Fatal("no lea found")
}

func TestExportsPinnedAndNamed(t *testing.T) {
	p := build(t, `
.type lib
.text 0x00700000
api_a:
    ret
api_b:
    movi r1, 2
    ret
.export libfn = api_b
.export entry0 = api_a
`)
	pins := p.PinnedInsts()
	if len(pins) != 2 {
		t.Fatalf("pins = %d, want 2", len(pins))
	}
	names := map[string]bool{}
	for _, f := range p.Functions {
		names[f.Name] = true
	}
	if !names["libfn"] || !names["entry0"] {
		t.Fatalf("function names = %v", names)
	}
}

func TestFunctionsPartition(t *testing.T) {
	p := build(t, `
.text 0x00100000
main:
    call helper
    movi r0, 1
    movi r1, 0
    syscall
helper:
    movi r2, 5
    ret
`)
	if len(p.Functions) != 2 {
		t.Fatalf("functions = %d, want 2", len(p.Functions))
	}
	var mainFn, helperFn *ir.Function
	for _, f := range p.Functions {
		switch f.Name {
		case "main":
			mainFn = f
		default:
			helperFn = f
		}
	}
	if mainFn == nil || helperFn == nil {
		t.Fatalf("missing functions: %+v", p.Functions)
	}
	if len(mainFn.Insts) != 4 {
		t.Fatalf("main insts = %d, want 4", len(mainFn.Insts))
	}
	if len(helperFn.Insts) != 2 {
		t.Fatalf("helper insts = %d, want 2", len(helperFn.Insts))
	}
	if !strings.HasPrefix(helperFn.Name, "sub_") {
		t.Fatalf("helper name = %q", helperFn.Name)
	}
}

func TestLoadPCFromCodeForcesFixedRange(t *testing.T) {
	// Hand-build a binary where reached code loadpc-reads other reached
	// code (pathological, paper case 2).
	var code []byte
	app := func(in isa.Inst) {
		code = append(code, encode32(t, in)...)
	}
	app(isa.Inst{Op: isa.OpLoadPC, Rd: 2, Imm: 0}) // reads the next instruction's bytes
	app(isa.Inst{Op: isa.OpMovI, Rd: 0, Imm: 1})
	app(isa.Inst{Op: isa.OpMovI, Rd: 1, Imm: 0})
	app(isa.Inst{Op: isa.OpSyscall})
	bin := &binfmt.Binary{
		Type:  binfmt.Exec,
		Entry: 0x00100000,
		Segments: []binfmt.Segment{
			{Kind: binfmt.Text, VAddr: 0x00100000, Data: code},
		},
	}
	agg, err := disasm.Disassemble(bin)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Build(bin, agg)
	if err != nil {
		t.Fatal(err)
	}
	// The 4 bytes at 0x00100006 must now be fixed.
	found := false
	for _, r := range p.Fixed {
		if r.Contains(0x00100006) {
			found = true
		}
	}
	if !found {
		t.Fatalf("loadpc-read code bytes not fixed: %+v", p.Fixed)
	}
	if len(p.Warnings) == 0 {
		t.Fatal("expected a warning")
	}
}

func TestAmbiguousRegionBranchTargetsPinned(t *testing.T) {
	// Unreached-but-decodable region contains a jmp into real code; the
	// target must be pinned.
	var code []byte
	app := func(in isa.Inst) { code = append(code, encode32(t, in)...) }
	app(isa.Inst{Op: isa.OpJmp32, Imm: 5})   // entry jumps over the blob
	app(isa.Inst{Op: isa.OpJmp32, Imm: -10}) // unreached: branches back to entry
	app(isa.Inst{Op: isa.OpMovI, Rd: 0, Imm: 1})
	app(isa.Inst{Op: isa.OpMovI, Rd: 1, Imm: 0})
	app(isa.Inst{Op: isa.OpSyscall})
	bin := &binfmt.Binary{
		Type:  binfmt.Exec,
		Entry: 0x00100000,
		Segments: []binfmt.Segment{
			{Kind: binfmt.Text, VAddr: 0x00100000, Data: code},
		},
	}
	agg, err := disasm.Disassemble(bin)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Build(bin, agg)
	if err != nil {
		t.Fatal(err)
	}
	// The ambiguous jmp at +5 targets 0x00100000 (entry, already pinned)
	// — construct expectation dynamically: target = 5+5-10 = 0.
	if n := p.ByAddr[0x00100000]; n == nil || !n.Pinned {
		t.Fatal("ambiguous-region branch target not pinned")
	}
}

func TestEntryNotDecodedError(t *testing.T) {
	bin := &binfmt.Binary{
		Type:  binfmt.Exec,
		Entry: 0x00100000,
		Segments: []binfmt.Segment{
			{Kind: binfmt.Text, VAddr: 0x00100000, Data: []byte{0x00, 0x00}},
		},
	}
	agg, err := disasm.Disassemble(bin)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(bin, agg); err == nil {
		t.Fatal("expected error for undecodable entry")
	}
}

func TestCallKeepsFallthrough(t *testing.T) {
	p := build(t, `
.text 0x00100000
main:
    call f
    movi r0, 1
    movi r1, 0
    syscall
f:  ret
`)
	var call *ir.Instruction
	for _, n := range p.Insts {
		if n.Inst.Op == isa.OpCall {
			call = n
		}
	}
	if call == nil || call.Fallthrough == nil || call.Target == nil {
		t.Fatal("call must have both fallthrough and target")
	}
}

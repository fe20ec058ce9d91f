package disasm

import (
	"strings"
	"testing"

	"zipr/internal/asm"
	"zipr/internal/binfmt"
	"zipr/internal/fault"
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

// decode returns the default-ISA decode table of bin's text.
func decode(bin *binfmt.Binary) *isa.DecodeTable {
	text := bin.Text()
	return isa.DecodeText(nil, text.Data, text.VAddr)
}

func classAt(t *testing.T, agg Aggregated, bin *binfmt.Binary, addr uint32) Class {
	t.Helper()
	return agg.Classes[addr-bin.Text().VAddr]
}

func TestLinearSweepResync(t *testing.T) {
	// nop, then an undecodable byte, then ret.
	text := []byte{0x90, 0x00, 0xC3}
	res := LinearSweep(isa.DecodeText(nil, text, 0x1000))
	if !res.Code.Has(0) || res.Code.Has(1) || !res.Code.Has(2) {
		t.Fatalf("code coverage = %b", res.Code)
	}
	i0, _ := res.Insts.Get(0x1000)
	i2, _ := res.Insts.Get(0x1002)
	if i0.Op != isa.OpNop || i2.Op != isa.OpRet {
		t.Fatal("linear sweep missed instructions")
	}
}

// TestLinearSweepKeepsPhaseZVM64 pins the fixed-width sweep: it starts
// at the text's first byte and steps in whole words, so at an aligned
// base it takes every aligned instruction, and at a base two bytes off
// alignment, where every decodable word is out of its phase, it takes
// none.
func TestLinearSweepKeepsPhaseZVM64(t *testing.T) {
	var words []byte
	for _, in := range []isa.Inst{{Op: isa.OpNop}, {Op: isa.OpNop}, {Op: isa.OpRet}} {
		b, err := isa.ZVM64.Encode(in)
		if err != nil {
			t.Fatal(err)
		}
		words = append(words, b...)
	}
	aligned := LinearSweep(isa.DecodeText(isa.ZVM64, words, 0x100000))
	if aligned.Insts.Len() != 3 {
		t.Fatalf("aligned base: %d instructions swept, want 3", aligned.Insts.Len())
	}
	text := append([]byte{0xAA, 0xBB}, words...)
	tab := isa.DecodeText(isa.ZVM64, text, 0x100002)
	if len(tab.Insts) != 3 {
		t.Fatalf("misaligned base: %d candidates, want 3", len(tab.Insts))
	}
	if n := LinearSweep(tab).Insts.Len(); n != 0 {
		t.Fatalf("misaligned base: %d instructions swept, want 0", n)
	}
}

func TestRecursiveSkipsDataInText(t *testing.T) {
	src := `
.text 0x00100000
main:
    lea r2, str        ; data reference, not a code seed
    loadpc r3, str
    jmp after
str: .asciz "AAAA"     ; 0x41 = valid-looking bytes? 0x41 is not an opcode
after:
    movi r0, 1
    movi r1, 0
    syscall
`
	bin, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	rec := RecursiveTraversal(bin, decode(bin), nil)
	text := bin.Text()
	// The string bytes must not be classified Code by the recursive pass.
	strOff := 6 + 6 + 5 // lea + loadpc + jmp
	for i := strOff; i < strOff+5; i++ {
		if rec.Code.Has(i) {
			t.Fatalf("recursive pass classified string byte %d as code", i)
		}
	}
	// `after` must be reached.
	afterAddr := text.VAddr + uint32(strOff+5)
	if !rec.Insts.Has(afterAddr) {
		t.Fatalf("recursive pass missed post-jump code at %#x", afterAddr)
	}
}

func TestRecursiveFollowsDataPointers(t *testing.T) {
	// handler is referenced only via a function-pointer table in data.
	src := `
.text 0x00100000
main:
    movi r4, tab
    load r4, [r4]
    callr r4
    movi r0, 1
    movi r1, 0
    syscall
handler:
    movi r2, 7
    ret
.data 0x00200000
tab: .word handler
`
	bin, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	rec := RecursiveTraversal(bin, decode(bin), nil)
	handlerAddr, ok := findLabelByDataWord(bin)
	if !ok {
		t.Fatal("test setup: no pointer found in data")
	}
	if !rec.Insts.Has(handlerAddr) {
		t.Fatalf("recursive pass missed data-pointed handler at %#x", handlerAddr)
	}
}

// findLabelByDataWord reads the first data word (the test's table slot).
func findLabelByDataWord(bin *binfmt.Binary) (uint32, bool) {
	d := bin.DataSeg()
	if d == nil || len(d.Data) < 4 {
		return 0, false
	}
	return uint32(d.Data[0]) | uint32(d.Data[1])<<8 | uint32(d.Data[2])<<16 | uint32(d.Data[3])<<24, true
}

func TestRecursiveFollowsExportsAndImmediates(t *testing.T) {
	src := `
.type lib
.text 0x00700000
exported:
    ret
viaimm:
    ret
seed:
    movi r1, viaimm   ; immediate seeds traversal
    ret
.export fn = exported
.export s2 = seed
`
	bin, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	rec := RecursiveTraversal(bin, decode(bin), nil)
	if rec.Insts.Len() < 3 {
		t.Fatalf("expected export coverage, got %d instructions", rec.Insts.Len())
	}
	// viaimm (second ret, at offset 1) is reached only through an
	// address-shaped immediate: it must be decoded, but only weakly —
	// the bytes could just as well be data, so they must not be
	// relocated (paper case 4 avoidance).
	if !rec.Weak.Has(0x00700001) {
		t.Fatal("immediate-seeded code not decoded into the weak tier")
	}
	if rec.Insts.Has(0x00700001) {
		t.Fatal("immediate-seeded code must not be classified relocatable")
	}
	if rec.Code.Has(1) {
		t.Fatal("weak bytes must not be classified Code")
	}
}

func TestAggregateFourCases(t *testing.T) {
	src := `
.text 0x00100000
main:
    jmp after
blob: .byte 0x00, 0x00, 0x01, 0x02, 0x03   ; 0x01 0x02 0x03 decodes as add r2,r3
after:
    movi r0, 1
    movi r1, 0
    syscall
`
	bin, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := DisassembleOpts(bin, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Case 1: reached code.
	if classAt(t, agg, bin, bin.Entry) != Code {
		t.Fatal("entry not classified Code")
	}
	// Case 2: the 0x00 bytes are conclusive data.
	blobAddr := bin.Text().VAddr + 5
	if classAt(t, agg, bin, blobAddr) != Data {
		t.Fatalf("undecodable byte class = %v, want Data", classAt(t, agg, bin, blobAddr))
	}
	// Case 3: the decodable-but-unreached bytes are ambiguous.
	if classAt(t, agg, bin, blobAddr+2) != Ambig {
		t.Fatalf("ambiguous byte class = %v, want Ambig", classAt(t, agg, bin, blobAddr+2))
	}
	if agg.AmbigInsts.Len() == 0 {
		t.Fatal("expected ambiguous instructions")
	}
	// The whole blob is one fixed range.
	found := false
	for _, r := range agg.Fixed {
		if r.Contains(blobAddr) && r.Contains(blobAddr+4) {
			found = true
		}
	}
	if !found {
		t.Fatalf("blob not covered by fixed ranges %+v", agg.Fixed)
	}
}

func TestAggregateWarnsOnAmbiguousBranches(t *testing.T) {
	// Craft raw bytes: reached ret, then an unreached region that decodes
	// to a direct branch (case 3/4 risk): jmp32 encoding.
	text := []byte{0xC3}
	text = append(text, encode32(t, isa.Inst{Op: isa.OpJmp32, Imm: -5})...)
	bin := &binfmt.Binary{
		Type:  binfmt.Exec,
		Entry: 0x00100000,
		Segments: []binfmt.Segment{
			{Kind: binfmt.Text, VAddr: 0x00100000, Data: text},
		},
	}
	agg, err := DisassembleOpts(bin, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.Warnings) == 0 {
		t.Fatal("expected a conservative-handling warning")
	}
	joined := strings.Join(agg.Warnings, "\n")
	if !strings.Contains(joined, "ambiguous") {
		t.Fatalf("warnings = %q", joined)
	}
}

func TestDisassembleNoText(t *testing.T) {
	bin := &binfmt.Binary{Type: binfmt.Exec}
	if _, err := DisassembleOpts(bin, Options{}); err == nil {
		t.Fatal("expected error for missing text segment")
	}
}

func TestFullCoverageOfStraightLineProgram(t *testing.T) {
	src := `
.text 0x00100000
main:
    movi r2, 1
    addi r2, 2
    push r2
    pop r3
    movi r0, 1
    movi r1, 0
    syscall
`
	bin, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := DisassembleOpts(bin, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range agg.Classes {
		if c != Code {
			t.Fatalf("byte %d classified %v, want Code", i, c)
		}
	}
	if len(agg.Fixed) != 0 {
		t.Fatalf("unexpected fixed ranges %+v", agg.Fixed)
	}
}

// arbFixture is a program whose in-text string decodes as plausible
// instructions: the two-way aggregation leaves it ambiguous (pinnable),
// weighted arbitration demotes it to data on string-run evidence.
const arbFixture = `
.text 0x00100000
main:
    jmp after
msg: .asciz "hello world!!"
after:
    movi r0, 1
    movi r1, 0
    syscall
`

func TestWeightedArbitrationDemotes(t *testing.T) {
	bin, err := asm.Assemble(arbFixture)
	if err != nil {
		t.Fatal(err)
	}
	agg2, err := DisassembleOpts(bin, Options{})
	if err != nil {
		t.Fatal(err)
	}
	aggW, err := DisassembleOpts(bin, Options{Arbitration: ArbWeighted})
	if err != nil {
		t.Fatal(err)
	}
	if agg2.Demoted != 0 || agg2.Disputed != 0 {
		t.Fatalf("two-way aggregation demoted (%d) or disputed (%d)", agg2.Demoted, agg2.Disputed)
	}
	if agg2.AmbigInsts.Len() == 0 {
		t.Fatal("fixture produced no ambiguity under two-way aggregation")
	}
	if aggW.Demoted == 0 {
		t.Fatal("weighted arbitration demoted nothing")
	}
	if aggW.AmbigInsts.Len() >= agg2.AmbigInsts.Len() {
		t.Fatalf("ambiguous set did not shrink: %d -> %d", agg2.AmbigInsts.Len(), aggW.AmbigInsts.Len())
	}
	// Demotion reclassifies the string bytes as data but never moves
	// them: the blob stays inside a fixed range either way.
	msgAddr := bin.Text().VAddr + 5
	for i := uint32(0); i < 13; i++ {
		if c := classAt(t, aggW, bin, msgAddr+i); c == Ambig {
			t.Fatalf("msg byte %d still Ambig after demotion", i)
		}
		if c := classAt(t, aggW, bin, msgAddr+i); c == Code {
			t.Fatalf("demotion promoted msg byte %d to Code", i)
		}
	}
	for _, want := range []uint32{msgAddr, msgAddr + 13} {
		covered := false
		for _, r := range aggW.Fixed {
			if r.Contains(want) {
				covered = true
			}
		}
		if !covered {
			t.Fatalf("demoted byte %#x left fixed coverage %+v", want, aggW.Fixed)
		}
	}
	// Reached code is untouched.
	if classAt(t, aggW, bin, bin.Entry) != Code {
		t.Fatal("entry no longer Code under weighted arbitration")
	}
	if len(aggW.Warnings) > len(agg2.Warnings) {
		t.Fatalf("weighted arbitration grew warnings: %d -> %d", len(agg2.Warnings), len(aggW.Warnings))
	}
}

// TestArbitrationDisputeVeto: an armed infer-rule-disagree schedule
// vetoes individual demotions; vetoed candidates keep their two-way
// classification, and every ambiguous instruction is either demoted or
// disputed — never silently dropped.
func TestArbitrationDisputeVeto(t *testing.T) {
	bin, err := asm.Assemble(arbFixture)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := DisassembleOpts(bin, Options{Arbitration: ArbWeighted})
	if err != nil {
		t.Fatal(err)
	}
	var disputedOnce bool
	for seed := int64(1); seed <= 20; seed++ {
		inj := fault.NewArmed(seed, fault.InferRuleDisagree)
		agg, err := DisassembleOpts(bin, Options{Arbitration: ArbWeighted, Inject: inj})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if agg.Demoted+agg.Disputed != clean.Demoted {
			t.Fatalf("seed %d: demoted %d + disputed %d != clean demotions %d",
				seed, agg.Demoted, agg.Disputed, clean.Demoted)
		}
		if agg.AmbigInsts.Len() != clean.AmbigInsts.Len()+agg.Disputed {
			t.Fatalf("seed %d: ambig count %d, want clean %d + disputed %d",
				seed, agg.AmbigInsts.Len(), clean.AmbigInsts.Len(), agg.Disputed)
		}
		if agg.Disputed > 0 {
			disputedOnce = true
		}
	}
	if !disputedOnce {
		t.Fatal("no seed disputed a demotion")
	}
}

package transform

import (
	"strings"
	"testing"

	"zipr/internal/binfmt"
	"zipr/internal/ir"
	"zipr/internal/isa"
)

func testProgram() *ir.Program {
	bin := &binfmt.Binary{
		Type:  binfmt.Exec,
		Entry: 0x1000,
		Segments: []binfmt.Segment{
			{Kind: binfmt.Text, VAddr: 0x1000, Data: make([]byte, 4096)},
			{Kind: binfmt.Data, VAddr: 0x10000, Data: make([]byte, 64)},
		},
	}
	return ir.NewProgram(bin)
}

func TestMandatoryWidensShortBranches(t *testing.T) {
	p := testProgram()
	target := p.AddOrig(0x1010, isa.Inst{Op: isa.OpRet})
	j8 := p.AddOrig(0x1000, isa.Inst{Op: isa.OpJmp8})
	j8.Target = target
	jcc := p.AddOrig(0x1002, isa.Inst{Op: isa.OpJcc8, Cc: isa.CcZ})
	jcc.Target = target
	jcc.Fallthrough = target
	if err := Mandatory(p); err != nil {
		t.Fatal(err)
	}
	if j8.Inst.Op != isa.OpJmp32 {
		t.Fatalf("jmp8 not widened: %s", j8.Inst.Op.Name())
	}
	if jcc.Inst.Op != isa.OpJcc32 || jcc.Inst.Cc != isa.CcZ {
		t.Fatalf("jcc8 not widened correctly: %+v", jcc.Inst)
	}
}

func TestNullIsNoOp(t *testing.T) {
	p := testProgram()
	n := p.AddOrig(0x1000, isa.Inst{Op: isa.OpRet})
	n.Pinned = true
	before := len(p.Insts)
	if err := ApplyTraced(p, nil, Null{}); err != nil {
		t.Fatal(err)
	}
	if len(p.Insts) != before {
		t.Fatal("null transform changed the program")
	}
}

func TestApplyValidatesAfterTransforms(t *testing.T) {
	p := testProgram()
	p.AddOrig(0x1000, isa.Inst{Op: isa.OpRet})
	bad := brokenTransform{}
	if err := ApplyTraced(p, nil, bad); err == nil || !strings.Contains(err.Error(), "IR invalid") {
		t.Fatalf("err = %v", err)
	}
}

type brokenTransform struct{}

func (brokenTransform) Name() string { return "broken" }

func (brokenTransform) Apply(ctx *Context) error {
	// Create an IR inconsistency: a terminator with a fallthrough.
	n := ctx.Prog.NewInst(isa.Inst{Op: isa.OpJmp32})
	n.Fallthrough = ctx.Prog.NewInst(isa.Inst{Op: isa.OpNop})
	n.AbsTarget = 0x1000
	return nil
}

func TestStackPadGrowsMatchedFrames(t *testing.T) {
	p := testProgram()
	entry := p.AddOrig(0x1000, isa.Inst{Op: isa.OpAddI8, Rd: isa.SP, Imm: -32})
	body := p.AddOrig(0x1003, isa.Inst{Op: isa.OpNop})
	release := p.AddOrig(0x1004, isa.Inst{Op: isa.OpAddI8, Rd: isa.SP, Imm: 32})
	ret := p.AddOrig(0x1007, isa.Inst{Op: isa.OpRet})
	entry.Fallthrough = body
	body.Fallthrough = release
	release.Fallthrough = ret
	p.Functions = []*ir.Function{{Name: "f", Entry: entry, Insts: []*ir.Instruction{entry, body, release, ret}}}

	if err := ApplyTraced(p, nil, StackPad{Pad: 100}); err != nil {
		t.Fatal(err)
	}
	if entry.Inst.Imm != -132 || release.Inst.Imm != 132 {
		t.Fatalf("frames = %d / %d, want -132 / 132", entry.Inst.Imm, release.Inst.Imm)
	}
	// -132 no longer fits imm8: the op must have widened.
	if entry.Inst.Op != isa.OpAddI || release.Inst.Op != isa.OpAddI {
		t.Fatalf("ops = %s / %s, want addi", entry.Inst.Op.Name(), release.Inst.Op.Name())
	}
}

func TestStackPadSkipsUnmatchedFrames(t *testing.T) {
	p := testProgram()
	entry := p.AddOrig(0x1000, isa.Inst{Op: isa.OpAddI8, Rd: isa.SP, Imm: -32})
	ret := p.AddOrig(0x1003, isa.Inst{Op: isa.OpRet}) // missing release
	entry.Fallthrough = ret
	p.Functions = []*ir.Function{{Name: "f", Entry: entry, Insts: []*ir.Instruction{entry, ret}}}
	if err := ApplyTraced(p, nil, StackPad{Pad: 100}); err != nil {
		t.Fatal(err)
	}
	if entry.Inst.Imm != -32 {
		t.Fatalf("unmatched frame modified: %d", entry.Inst.Imm)
	}
	if len(p.Warnings) == 0 {
		t.Fatal("expected a skip warning")
	}
}

func TestStackPadIgnoresSmallAdjustments(t *testing.T) {
	p := testProgram()
	spill := p.AddOrig(0x1000, isa.Inst{Op: isa.OpAddI8, Rd: isa.SP, Imm: -4})
	un := p.AddOrig(0x1003, isa.Inst{Op: isa.OpAddI8, Rd: isa.SP, Imm: 4})
	ret := p.AddOrig(0x1006, isa.Inst{Op: isa.OpRet})
	spill.Fallthrough = un
	un.Fallthrough = ret
	p.Functions = []*ir.Function{{Name: "f", Entry: spill, Insts: []*ir.Instruction{spill, un, ret}}}
	if err := ApplyTraced(p, nil, StackPad{Pad: 64, MinFrame: 16}); err != nil {
		t.Fatal(err)
	}
	if spill.Inst.Imm != -4 {
		t.Fatalf("small adjustment modified: %d", spill.Inst.Imm)
	}
}

func TestCanarySkipsEntryAndComputedGoto(t *testing.T) {
	p := testProgram()
	// Entry function: must not be protected (nothing returns from it).
	entry := p.AddOrig(0x1000, isa.Inst{Op: isa.OpRet})
	entry.Pinned = true
	p.Entry = entry
	// Function with a computed goto: must be skipped (called, but unsafe).
	f2 := p.AddOrig(0x1010, isa.Inst{Op: isa.OpJmpR, Rd: 1})
	// Plain called function: protected.
	f3 := p.AddOrig(0x1020, isa.Inst{Op: isa.OpRet})
	// Unbalanced fragment (an epilogue without its prologue, rooted at a
	// pinned mid-code address): must be skipped even though it ends in
	// ret — pushing a canary mid-frame would corrupt the discipline.
	f4 := p.AddOrig(0x1030, isa.Inst{Op: isa.OpAddI8, Rd: isa.SP, Imm: 16})
	f4ret := p.AddOrig(0x1033, isa.Inst{Op: isa.OpRet})
	f4.Fallthrough = f4ret
	f4.Pinned = true
	// Loop-entry function: a branch targets its entry; must be skipped.
	f5 := p.AddOrig(0x1040, isa.Inst{Op: isa.OpNop})
	f5ret := p.AddOrig(0x1041, isa.Inst{Op: isa.OpRet})
	f5.Fallthrough = f5ret
	loopBack := p.NewInst(isa.Inst{Op: isa.OpJmp32})
	loopBack.Target = f5
	c1 := p.NewInst(isa.Inst{Op: isa.OpCall})
	c1.Target = f2
	c2 := p.NewInst(isa.Inst{Op: isa.OpCall})
	c2.Target = f3
	p.Functions = []*ir.Function{
		{Name: "main", Entry: entry, Insts: []*ir.Instruction{entry}},
		{Name: "goto", Entry: f2, Insts: []*ir.Instruction{f2}},
		{Name: "plain", Entry: f3, Insts: []*ir.Instruction{f3}},
		{Name: "fragment", Entry: f4, Insts: []*ir.Instruction{f4, f4ret}},
		{Name: "loop", Entry: f5, Insts: []*ir.Instruction{f5, f5ret}},
	}
	before := len(p.Insts)
	if err := ApplyTraced(p, nil, Canary{}); err != nil {
		t.Fatal(err)
	}
	// Only `plain` gets instrumentation: entry push + 5 check insts, plus
	// the 4-instruction shared violation handler.
	added := len(p.Insts) - before
	if added != 4+1+5+1 { // viol(4) + pushi(1 new node via InsertBefore) + checks(5)
		t.Fatalf("added %d instructions", added)
	}
	if f4.Inst.Op != isa.OpAddI8 {
		t.Fatal("unbalanced fragment was instrumented")
	}
	if f5.Inst.Op != isa.OpNop {
		t.Fatal("loop-entry function was instrumented")
	}
	if f3.Inst.Op != isa.OpPushI32 {
		t.Fatalf("protected entry op = %s, want pushi", f3.Inst.Op.Name())
	}
	if f2.Inst.Op != isa.OpJmpR {
		t.Fatal("computed-goto function was modified")
	}
	if entry.Inst.Op != isa.OpRet {
		t.Fatal("program entry was modified")
	}
}

func TestCFISkipsProgramsWithoutIndirectFlow(t *testing.T) {
	p := testProgram()
	n := p.AddOrig(0x1000, isa.Inst{Op: isa.OpHlt})
	_ = n
	before := len(p.Insts)
	if err := ApplyTraced(p, nil, CFI{}); err != nil {
		t.Fatal(err)
	}
	if len(p.Insts) != before || len(p.Deferred) != 0 {
		t.Fatal("CFI instrumented a program with no indirect control flow")
	}
}

func TestCFIRewritesSites(t *testing.T) {
	p := testProgram()
	ret := p.AddOrig(0x1000, isa.Inst{Op: isa.OpRet})
	jmpr := p.AddOrig(0x1001, isa.Inst{Op: isa.OpJmpR, Rd: 3})
	callr := p.AddOrig(0x1003, isa.Inst{Op: isa.OpCallR, Rd: 4})
	site := p.AddOrig(0x1005, isa.Inst{Op: isa.OpRet})
	callr.Fallthrough = site
	if err := ApplyTraced(p, nil, CFI{}); err != nil {
		t.Fatal(err)
	}
	if ret.Inst.Op != isa.OpJmp32 || ret.Target == nil {
		t.Fatalf("ret rewrite: %s", ret)
	}
	if jmpr.Inst.Op != isa.OpPush || jmpr.Inst.Rd != 3 {
		t.Fatalf("jmpr rewrite: %s", jmpr)
	}
	if callr.Inst.Op != isa.OpPushI32 || callr.Target != site {
		t.Fatalf("callr rewrite: %s", callr)
	}
	if len(p.Deferred) != 1 || p.Deferred[0].Name != "cfi_targets" {
		t.Fatalf("deferred = %+v", p.Deferred)
	}
}

func TestPinBlocks(t *testing.T) {
	p := testProgram()
	entry := p.AddOrig(0x1000, isa.Inst{Op: isa.OpCall})
	target := p.AddOrig(0x1010, isa.Inst{Op: isa.OpRet})
	site := p.AddOrig(0x1005, isa.Inst{Op: isa.OpRet})
	entry.Target = target
	entry.Fallthrough = site
	synthetic := p.NewInst(isa.Inst{Op: isa.OpJmp32}) // no OrigAddr
	synthetic.Target = target
	p.Functions = []*ir.Function{{Name: "main", Entry: entry, Insts: []*ir.Instruction{entry, site}}}
	if err := ApplyTraced(p, nil, PinBlocks{}); err != nil {
		t.Fatal(err)
	}
	if !target.Pinned || !site.Pinned || !entry.Pinned {
		t.Fatalf("pins: target=%v site=%v entry=%v", target.Pinned, site.Pinned, entry.Pinned)
	}
}

package ir

import (
	"testing"

	"zipr/internal/isa"
)

func TestDeleteAndNormalizeSplicesChains(t *testing.T) {
	p := NewProgram(testBin())
	a := p.AddOrig(0x1000, isa.Inst{Op: isa.OpMovI, Rd: 1})
	b := p.AddOrig(0x1006, isa.Inst{Op: isa.OpNop})
	c := p.AddOrig(0x1007, isa.Inst{Op: isa.OpNop})
	d := p.AddOrig(0x1008, isa.Inst{Op: isa.OpRet})
	a.Fallthrough = b
	b.Fallthrough = c
	c.Fallthrough = d
	j := p.NewInst(isa.Inst{Op: isa.OpJmp32})
	j.Target = b

	if err := p.Delete(b); err != nil {
		t.Fatal(err)
	}
	if err := p.Delete(c); err != nil {
		t.Fatal(err)
	}
	if err := p.Normalize(); err != nil {
		t.Fatal(err)
	}
	if a.Fallthrough != d {
		t.Fatalf("fallthrough not spliced: %v", a.Fallthrough)
	}
	if j.Target != d {
		t.Fatalf("branch target not spliced: %v", j.Target)
	}
	for _, n := range p.Insts {
		if n.Deleted {
			t.Fatal("deleted node survived normalization")
		}
	}
}

func TestDeleteTerminatorRejected(t *testing.T) {
	p := NewProgram(testBin())
	r := p.AddOrig(0x1000, isa.Inst{Op: isa.OpRet})
	if err := p.Delete(r); err == nil {
		t.Fatal("deleting a terminator must fail")
	}
}

func TestNormalizeMovesPinToSuccessor(t *testing.T) {
	p := NewProgram(testBin())
	pinned := p.AddOrig(0x1000, isa.Inst{Op: isa.OpNop})
	pinned.Pinned = true
	succ := p.NewInst(isa.Inst{Op: isa.OpRet}) // no OrigAddr of its own
	pinned.Fallthrough = succ
	if err := p.Delete(pinned); err != nil {
		t.Fatal(err)
	}
	if err := p.Normalize(); err != nil {
		t.Fatal(err)
	}
	if !succ.Pinned || succ.OrigAddr != 0x1000 {
		t.Fatalf("pin not moved: pinned=%v orig=%#x", succ.Pinned, succ.OrigAddr)
	}
	if p.At(0x1000) != succ {
		t.Fatal("At does not reach the moved pin")
	}
}

func TestNormalizeAliasesConflictingPins(t *testing.T) {
	p := NewProgram(testBin())
	pinned := p.AddOrig(0x1000, isa.Inst{Op: isa.OpNop})
	pinned.Pinned = true
	succ := p.AddOrig(0x1001, isa.Inst{Op: isa.OpRet})
	succ.Pinned = true
	pinned.Fallthrough = succ
	if err := p.Delete(pinned); err != nil {
		t.Fatal(err)
	}
	if err := p.Normalize(); err != nil {
		t.Fatal(err)
	}
	// succ keeps its own pin; an alias jump carries the deleted pin.
	alias := p.At(0x1000)
	if alias == succ || alias == nil {
		t.Fatalf("expected alias node, got %v", alias)
	}
	if alias.Inst.Op != isa.OpJmp32 || alias.Target != succ || !alias.Pinned || alias.OrigAddr != 0x1000 {
		t.Fatalf("alias wrong: %s", alias)
	}
	if p.At(0x1001) != succ || !succ.Pinned {
		t.Fatal("successor pin damaged")
	}
}

func TestNormalizeRedirectsThroughDeletedRun(t *testing.T) {
	// Slab-allocated nodes, as cfg builds them: a pinned node and its
	// unpinned successor are both deleted, so the pin travels over the
	// run to the first live node, and At follows it there.
	p := NewProgram(testBin())
	p.Reserve(3)
	pinned := p.AddOrig(0x1000, isa.Inst{Op: isa.OpNop})
	pinned.Pinned = true
	mid := p.AddOrig(0x1001, isa.Inst{Op: isa.OpNop})
	end := p.AddOrig(0x1002, isa.Inst{Op: isa.OpRet})
	pinned.Fallthrough = mid
	mid.Fallthrough = end
	for _, n := range []*Instruction{pinned, mid} {
		if err := p.Delete(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Normalize(); err != nil {
		t.Fatal(err)
	}
	alias := p.At(0x1000)
	if alias == nil || alias.Inst.Op != isa.OpJmp32 || alias.Target != end || !alias.Pinned {
		t.Fatalf("At(0x1000) = %v, want a pinned alias jmp to %s", alias, end)
	}
	if p.At(0x1002) != end || end.Pinned {
		t.Fatal("the live successor must keep its own address and stay unpinned")
	}
}

func TestNormalizeEntryDeletion(t *testing.T) {
	p := NewProgram(testBin())
	entry := p.AddOrig(0x1000, isa.Inst{Op: isa.OpNop})
	next := p.AddOrig(0x1001, isa.Inst{Op: isa.OpRet})
	entry.Fallthrough = next
	p.Entry = entry
	if err := p.Delete(entry); err != nil {
		t.Fatal(err)
	}
	if err := p.Normalize(); err != nil {
		t.Fatal(err)
	}
	if p.Entry != next {
		t.Fatalf("entry not redirected: %v", p.Entry)
	}
}

func TestNormalizeFunctionsFiltered(t *testing.T) {
	p := NewProgram(testBin())
	a := p.AddOrig(0x1000, isa.Inst{Op: isa.OpNop})
	b := p.AddOrig(0x1001, isa.Inst{Op: isa.OpRet})
	a.Fallthrough = b
	p.Functions = []*Function{{Name: "f", Entry: a, Insts: []*Instruction{a, b}}}
	if err := p.Delete(a); err != nil {
		t.Fatal(err)
	}
	if err := p.Normalize(); err != nil {
		t.Fatal(err)
	}
	f := p.Functions[0]
	if f.Entry != b || len(f.Insts) != 1 || f.Insts[0] != b {
		t.Fatalf("function not normalized: %+v", f)
	}
}

// TestNormalizeWithoutDeletionsIsFree: a program with no deleted node
// (every Null rewrite) normalizes without allocating and keeps its
// node list as it was.
func TestNormalizeWithoutDeletionsIsFree(t *testing.T) {
	p := NewProgram(testBin())
	a := p.AddOrig(0x1000, isa.Inst{Op: isa.OpNop})
	b := p.AddOrig(0x1001, isa.Inst{Op: isa.OpRet})
	a.Fallthrough = b
	p.Entry = a
	p.Functions = []*Function{{Name: "f", Entry: a, Insts: []*Instruction{a, b}}}
	before := p.Insts
	if allocs := testing.AllocsPerRun(10, func() {
		if err := p.Normalize(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Normalize allocated %v times per run, want 0", allocs)
	}
	if len(p.Insts) != len(before) || &p.Insts[0] != &before[0] || p.Insts[0] != a || p.Insts[1] != b {
		t.Fatalf("Insts changed: %v", p.Insts)
	}
}

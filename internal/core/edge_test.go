package core

import (
	"strings"
	"testing"

	"zipr/internal/ir"
	"zipr/internal/isa"
	"zipr/internal/obs"
)

func TestDeferredSizeMismatchRejected(t *testing.T) {
	const base = 0x00100000
	p := ir.NewProgram(newTestBin(base, 256))
	entry := p.AddOrig(base, isa.Inst{Op: isa.OpNop})
	entry.Pinned = true
	entry.Fallthrough = exitChain(p, 0)
	p.Entry = entry
	p.Defer("bad", 8, func(*ir.Layout) ([]byte, error) {
		return []byte{1, 2, 3}, nil // wrong size
	})
	_, err := Reassemble(p, Options{Placer: optPlacer{}})
	if err == nil || !strings.Contains(err.Error(), "produced 3 bytes") {
		t.Fatalf("err = %v", err)
	}
}

func TestDeferredFillErrorPropagates(t *testing.T) {
	const base = 0x00100000
	p := ir.NewProgram(newTestBin(base, 256))
	entry := p.AddOrig(base, isa.Inst{Op: isa.OpNop})
	entry.Pinned = true
	entry.Fallthrough = exitChain(p, 0)
	p.Entry = entry
	p.Defer("boom", 4, func(*ir.Layout) ([]byte, error) {
		return nil, strings.NewReader("").UnreadByte() // any error
	})
	if _, err := Reassemble(p, Options{Placer: optPlacer{}}); err == nil {
		t.Fatal("fill error swallowed")
	}
}

func TestUnplacedTargetRejected(t *testing.T) {
	// A branch whose target is not connected to anything placeable is an
	// IR bug; the patch phase must report it, not emit garbage.
	const base = 0x00100000
	p := ir.NewProgram(newTestBin(base, 256))
	entry := p.AddOrig(base, isa.Inst{Op: isa.OpNop})
	entry.Pinned = true
	entry.Fallthrough = exitChain(p, 0)
	p.Entry = entry
	// Dangling reference: a jmp pointing to an instruction that is never
	// reachable from any pin or placement root. The jmp itself is also
	// unreachable... attach it behind the entry so it gets placed.
	orphanTarget := p.NewInst(isa.Inst{Op: isa.OpRet})
	_ = orphanTarget
	// entry chain: nop -> movi -> movi -> syscall (terminator).
	// Splice a jcc that targets a node whose own placement loop would
	// place it; this verifies targets ARE placed transitively instead.
	j := p.InsertAfter(entry, isa.Inst{Op: isa.OpJcc32, Cc: isa.CcZ})
	j.Target = orphanTarget
	res, err := Reassemble(p, Options{Placer: optPlacer{}})
	if err != nil {
		t.Fatalf("transitive placement failed: %v", err)
	}
	if _, ok := res.Layout.AddrOf(orphanTarget); !ok {
		t.Fatal("operand target was not placed")
	}
}

func TestFinishInlinesFallbackReference(t *testing.T) {
	// Two pins: the second pin's target is swallowed by the first pin's
	// fallthrough chain, so its inline region must degrade to a plain
	// reference that still works.
	const base = 0x00100000
	bin := newTestBin(base, 4096)
	p := ir.NewProgram(bin)
	entry := p.AddOrig(base, isa.Inst{Op: isa.OpMovI, Rd: 2, Imm: 1})
	entry.Pinned = true
	// second stays pinned at an address FAR from where the chain will
	// put it (chain starts at entry's region).
	second := p.AddOrig(base+0x800, isa.Inst{Op: isa.OpAddI, Rd: 2, Imm: 10})
	second.Pinned = true
	entry.Fallthrough = second
	tail := p.NewInst(isa.Inst{Op: isa.OpMov, Rd: 1, Rs: 2})
	second.Fallthrough = tail
	tail.Fallthrough = p.NewInst(isa.Inst{Op: isa.OpMovI, Rd: 0, Imm: 1})
	tail.Fallthrough.Fallthrough = p.NewInst(isa.Inst{Op: isa.OpSyscall})
	p.Entry = entry

	res, err := Reassemble(p, Options{Placer: optPlacer{}})
	if err != nil {
		t.Fatal(err)
	}
	// Direct execution: 1 + 10 = 11.
	out := runBin(t, res.Binary)
	if out.ExitCode != 11 {
		t.Fatalf("exit = %d, want 11", out.ExitCode)
	}
	// Indirect entry at the second pin must land mid-chain: 10 only...
	// the pinned address base+0x800 must hold a usable reference.
	m2 := res.Binary.Clone()
	m2.Entry = base + 0x800
	out = runBin(t, m2)
	if out.ExitCode != 10 {
		t.Fatalf("entry via second pin: exit = %d, want 10", out.ExitCode)
	}
}

func TestStatsAccounting(t *testing.T) {
	const base = 0x00100000
	p := ir.NewProgram(newTestBin(base, 4096))
	entry := p.AddOrig(base, isa.Inst{Op: isa.OpMovI, Rd: 2, Imm: 1})
	entry.Pinned = true
	entry.Fallthrough = exitChain(p, 1)
	p.Entry = entry
	res, err := Reassemble(p, Options{Placer: newDivPlacer(5)})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.Pinned != 1 || s.Stubs5 != 1 || s.InlinePins != 0 {
		t.Fatalf("diversity stats = %+v", s)
	}
	if s.Dollops == 0 {
		t.Fatalf("no dollops recorded: %+v", s)
	}
	if s.FreeLeft <= 0 {
		t.Fatalf("free space accounting wrong: %+v", s)
	}
}

func TestChainMultiHop(t *testing.T) {
	// Force multi-hop chaining: a constrained pin whose ±127-byte window
	// contains no 5-byte hole but does contain a 2-byte one.
	const base = 0x00100000
	bin := newTestBin(base, 4096)
	p := ir.NewProgram(bin)
	pinAddr := uint32(base + 0x200)
	// Fixed bytes: [pin+2 .. pin+130) leaves no 5-byte room after the
	// 2-byte stub within most of the forward window; a small 2-byte gap
	// at pin+130 lets a hop land, and from there a 5-byte slot is in
	// range further on. The backward window is blocked too.
	p.Fixed = []ir.Range{
		{Start: pinAddr - 300, End: pinAddr},
		{Start: pinAddr + 2, End: pinAddr + 126},
		{Start: pinAddr + 128, End: pinAddr + 200},
	}

	entry := p.AddOrig(base, isa.Inst{Op: isa.OpMovI, Rd: 5, Imm: int32(pinAddr)})
	entry.Pinned = true
	j := p.NewInst(isa.Inst{Op: isa.OpJmpR, Rd: 5})
	entry.Fallthrough = j
	target := p.AddOrig(pinAddr, isa.Inst{Op: isa.OpMovI, Rd: 2, Imm: 21})
	target.Pinned = true
	target.Fallthrough = exitChain(p, 21)
	p.Entry = entry

	res, err := Reassemble(p, Options{Placer: optPlacer{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Chains < 2 {
		t.Fatalf("expected multi-hop chain, stats = %+v", res.Stats)
	}
	out := runBin(t, res.Binary)
	if out.ExitCode != 21 {
		t.Fatalf("exit = %d, want 21", out.ExitCode)
	}
}

// TestPlantedHltPastInitialTable: a fallthrough to nothing gets a hlt
// planted during reassembly, with an ID past the placement table sized
// from the program up front. The table grows for it, Layout answers for
// it, a node that is never placed (or was created afterwards) reads as
// unplaced, and the placed-insts gauge counts exactly the placed nodes.
func TestPlantedHltPastInitialTable(t *testing.T) {
	const base = 0x00100000
	p := ir.NewProgram(newTestBin(base, 256))
	entry := p.AddOrig(base, isa.Inst{Op: isa.OpNop})
	entry.Pinned = true
	p.Entry = entry // falls through to nothing
	orphan := p.NewInst(isa.Inst{Op: isa.OpRet})
	maxID := p.MaxID()

	tr := obs.New()
	res, err := Reassemble(p, Options{Placer: optPlacer{}, Trace: tr})
	if err != nil {
		t.Fatalf("reassemble: %v", err)
	}
	hlt := entry.Fallthrough
	if hlt == nil || hlt.Inst.Op != isa.OpHlt || hlt.ID <= maxID {
		t.Fatalf("planted fallthrough = %v, want a hlt with ID > %d", hlt, maxID)
	}
	at, ok := res.Layout.AddrOf(hlt)
	if !ok {
		t.Fatal("Layout.AddrOf has no address for the planted hlt")
	}
	if ea, _ := res.Layout.AddrOf(entry); at != ea+uint32(isa.ZVM32.InstLen(entry.Inst)) {
		t.Fatalf("hlt at %#x, want right after the entry at %#x", at, ea)
	}
	text := res.Binary.Text()
	if got, err := isa.ZVM32.Decode(text.Data[at-text.VAddr:], at); err != nil || got.Op != isa.OpHlt {
		t.Fatalf("bytes at %#x decode to %v (%v), want hlt", at, got, err)
	}
	if _, ok := res.Layout.AddrOf(orphan); ok {
		t.Fatal("Layout.AddrOf answers for a node that was never placed")
	}
	if _, ok := res.Layout.AddrOf(p.NewInst(isa.Inst{Op: isa.OpNop})); ok {
		t.Fatal("Layout.AddrOf answers for a node created after reassembly")
	}
	placed := 0
	for _, n := range p.Insts {
		if _, ok := res.Layout.AddrOf(n); ok {
			placed++
		}
	}
	if placed != 2 {
		t.Fatalf("%d nodes placed, want 2 (entry and hlt)", placed)
	}
	if g := tr.Gauge("reassemble.placed-insts"); g != int64(placed) {
		t.Fatalf("placed-insts gauge = %d, want %d", g, placed)
	}
}

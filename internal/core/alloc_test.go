package core

import (
	"testing"
	"testing/quick"

	"zipr/internal/ir"
)

// mustInvariants fails the test if the allocator's tree invariants do
// not hold.
func mustInvariants(t *testing.T, a *Alloc) {
	t.Helper()
	if err := a.checkInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

func TestAllocInitWithHoles(t *testing.T) {
	a := NewAlloc(ir.Range{Start: 100, End: 200}, []ir.Range{
		{Start: 120, End: 130},
		{Start: 150, End: 160},
	})
	blocks := a.Blocks()
	want := []ir.Range{{Start: 100, End: 120}, {Start: 130, End: 150}, {Start: 160, End: 200}}
	if len(blocks) != len(want) {
		t.Fatalf("blocks = %+v", blocks)
	}
	for i := range want {
		if blocks[i] != want[i] {
			t.Fatalf("blocks = %+v, want %+v", blocks, want)
		}
	}
	if a.TotalFree() != 20+20+40 {
		t.Fatalf("TotalFree = %d", a.TotalFree())
	}
	if a.NumBlocks() != 3 {
		t.Fatalf("NumBlocks = %d", a.NumBlocks())
	}
	mustInvariants(t, a)
}

func TestAllocCarveAndRelease(t *testing.T) {
	a := NewAlloc(ir.Range{Start: 0, End: 100}, nil)
	if err := a.Carve(ir.Range{Start: 10, End: 20}); err != nil {
		t.Fatal(err)
	}
	mustInvariants(t, a)
	if a.Contains(ir.Range{Start: 10, End: 11}) {
		t.Fatal("carved range still free")
	}
	if !a.Contains(ir.Range{Start: 0, End: 10}) || !a.Contains(ir.Range{Start: 20, End: 100}) {
		t.Fatal("surrounding space lost")
	}
	if err := a.Carve(ir.Range{Start: 5, End: 15}); err == nil {
		t.Fatal("carve across hole should fail")
	}
	if err := a.Carve(ir.Range{Start: 15, End: 15}); err == nil {
		t.Fatal("empty carve should fail")
	}
	a.Release(ir.Range{Start: 10, End: 20})
	mustInvariants(t, a)
	if !a.Contains(ir.Range{Start: 0, End: 100}) {
		t.Fatal("release did not merge back")
	}
	if a.NumBlocks() != 1 {
		t.Fatalf("blocks after merge = %+v", a.Blocks())
	}
}

func TestAllocCarveEdges(t *testing.T) {
	a := NewAlloc(ir.Range{Start: 0, End: 100}, nil)
	// Prefix, suffix, exact and middle carves exercise all four cases.
	if err := a.Carve(ir.Range{Start: 0, End: 10}); err != nil { // prefix trim
		t.Fatal(err)
	}
	mustInvariants(t, a)
	if err := a.Carve(ir.Range{Start: 90, End: 100}); err != nil { // suffix trim
		t.Fatal(err)
	}
	mustInvariants(t, a)
	if err := a.Carve(ir.Range{Start: 40, End: 50}); err != nil { // middle split
		t.Fatal(err)
	}
	mustInvariants(t, a)
	if err := a.Carve(ir.Range{Start: 10, End: 40}); err != nil { // exact block
		t.Fatal(err)
	}
	mustInvariants(t, a)
	if got := a.Blocks(); len(got) != 1 || got[0] != (ir.Range{Start: 50, End: 90}) {
		t.Fatalf("blocks = %+v", got)
	}
}

func TestAllocReleaseMerges(t *testing.T) {
	a := AllocFromBlocks([]ir.Range{{Start: 0, End: 10}, {Start: 20, End: 30}})
	// No merge.
	a.Release(ir.Range{Start: 40, End: 50})
	mustInvariants(t, a)
	// Left merge.
	a.Release(ir.Range{Start: 10, End: 15})
	mustInvariants(t, a)
	// Right merge.
	a.Release(ir.Range{Start: 18, End: 20})
	mustInvariants(t, a)
	// Both-sides merge closes the remaining gap.
	a.Release(ir.Range{Start: 15, End: 18})
	mustInvariants(t, a)
	want := []ir.Range{{Start: 0, End: 30}, {Start: 40, End: 50}}
	got := a.Blocks()
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("blocks = %+v, want %+v", got, want)
	}
}

func TestAllocReleaseDoubleFreePanics(t *testing.T) {
	a := NewAlloc(ir.Range{Start: 0, End: 100}, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	a.Release(ir.Range{Start: 50, End: 60})
}

func TestAllocLargestAndFindWithin(t *testing.T) {
	a := NewAlloc(ir.Range{Start: 0, End: 100}, []ir.Range{{Start: 30, End: 90}})
	largest, ok := a.Largest()
	if !ok || largest.Len() != 30 {
		t.Fatalf("largest = %+v", largest)
	}
	r, ok := a.FindWithin(ir.Range{Start: 25, End: 95}, 5)
	if !ok || r.Start != 25 {
		t.Fatalf("FindWithin = %+v, %v", r, ok)
	}
	r, ok = a.FindWithin(ir.Range{Start: 28, End: 95}, 5)
	if !ok || r.Start != 90 {
		t.Fatalf("FindWithin skipping small tail = %+v, %v", r, ok)
	}
	if _, ok := a.FindWithin(ir.Range{Start: 31, End: 89}, 1); ok {
		t.Fatal("FindWithin inside hole should fail")
	}
	if _, ok := NewAlloc(ir.Range{Start: 0, End: 0}, nil).Largest(); ok {
		t.Fatal("empty space has no largest block")
	}
}

func TestAllocLargestIsLeftmostAmongTies(t *testing.T) {
	a := AllocFromBlocks([]ir.Range{
		{Start: 0, End: 16}, {Start: 32, End: 48}, {Start: 64, End: 80},
	})
	b, ok := a.Largest()
	if !ok || b.Start != 0 {
		t.Fatalf("largest = %+v, want leftmost of the ties", b)
	}
}

func TestAllocQueries(t *testing.T) {
	blocks := []ir.Range{
		{Start: 0x1000, End: 0x1040}, // 64 bytes
		{Start: 0x2000, End: 0x2010}, // 16 bytes
		{Start: 0x3000, End: 0x3400}, // 1024 bytes
	}
	a := AllocFromBlocks(blocks)
	mustInvariants(t, a)

	if b, ok := a.LowestFit(10); !ok || b.Start != 0x1000 {
		t.Fatalf("LowestFit(10) = %+v, %v", b, ok)
	}
	if b, ok := a.LowestFit(100); !ok || b.Start != 0x3000 {
		t.Fatalf("LowestFit(100) = %+v, %v", b, ok)
	}
	if b, ok := a.HighestFit(10); !ok || b.Start != 0x3000 {
		t.Fatalf("HighestFit(10) = %+v, %v", b, ok)
	}
	if b, ok := a.HighestFit(20); !ok || b.Start != 0x3000 {
		t.Fatalf("HighestFit(20) = %+v, %v", b, ok)
	}
	if b, ok := a.BestFit(10); !ok || b.Start != 0x2000 {
		t.Fatalf("BestFit(10) = %+v, %v", b, ok)
	}
	if b, ok := a.BestFit(100); !ok || b.Start != 0x3000 {
		t.Fatalf("BestFit(100) = %+v, %v", b, ok)
	}
	if _, ok := a.BestFit(5000); ok {
		t.Fatal("BestFit(5000) should fail")
	}
	if b, ok := a.NearestFit(0x1080, 10); !ok || b.Start != 0x1000 {
		t.Fatalf("NearestFit(0x1080) = %+v, %v", b, ok)
	}
	if b, ok := a.NearestFit(0x2fff, 10); !ok || b.Start != 0x3000 {
		t.Fatalf("NearestFit(0x2fff) = %+v, %v", b, ok)
	}
	// Equidistant: 0x2000 and 0x3000 are both 0x800 from 0x2800; the
	// lower-addressed one wins.
	if b, ok := a.NearestFit(0x2800, 10); !ok || b.Start != 0x2000 {
		t.Fatalf("NearestFit(0x2800) tie = %+v, %v", b, ok)
	}
	if b, ok := a.BlockStartingAt(0x2000); !ok || b.End != 0x2010 {
		t.Fatalf("BlockStartingAt(0x2000) = %+v, %v", b, ok)
	}
	if _, ok := a.BlockStartingAt(0x2001); ok {
		t.Fatal("BlockStartingAt(0x2001) should fail")
	}

	var fits []ir.Range
	a.VisitFits(20, func(b ir.Range) bool {
		fits = append(fits, b)
		return true
	})
	if len(fits) != 2 || fits[0].Start != 0x1000 || fits[1].Start != 0x3000 {
		t.Fatalf("VisitFits(20) = %+v", fits)
	}
}

func TestQuickAllocCarveReleaseRoundTrip(t *testing.T) {
	// Property: any sequence of valid carves followed by releases in any
	// order restores full free space, with invariants held throughout.
	f := func(sizes []uint8) bool {
		whole := ir.Range{Start: 0, End: 4096}
		a := NewAlloc(whole, nil)
		var carved []ir.Range
		cursor := uint32(0)
		for _, s := range sizes {
			size := uint32(s%64) + 1
			if cursor+size > whole.End {
				break
			}
			r := ir.Range{Start: cursor, End: cursor + size}
			if err := a.Carve(r); err != nil {
				return false
			}
			carved = append(carved, r)
			cursor += size + uint32(s%3) // leave occasional gaps
		}
		if a.checkInvariants() != nil {
			return false
		}
		for i := len(carved) - 1; i >= 0; i-- {
			a.Release(carved[i])
			if a.checkInvariants() != nil {
				return false
			}
		}
		return a.TotalFree() == int(whole.Len()) && a.NumBlocks() == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

package ir

import (
	"sort"
	"testing"
	"testing/quick"

	"zipr/internal/binfmt"
	"zipr/internal/irdb"
	"zipr/internal/isa"
)

func testBin() *binfmt.Binary {
	return &binfmt.Binary{
		Type:  binfmt.Exec,
		Entry: 0x1000,
		Segments: []binfmt.Segment{
			{Kind: binfmt.Text, VAddr: 0x1000, Data: make([]byte, 64)},
			{Kind: binfmt.Data, VAddr: 0x2000, Data: make([]byte, 32)},
		},
	}
}

func TestInsertBeforeRedirectsReferences(t *testing.T) {
	p := NewProgram(testBin())
	a := p.AddOrig(0x1000, isa.Inst{Op: isa.OpNop})
	b := p.AddOrig(0x1001, isa.Inst{Op: isa.OpRet})
	a.Fallthrough = b
	a.Pinned = true
	// A branch elsewhere targets a.
	j := p.NewInst(isa.Inst{Op: isa.OpJmp32})
	j.Target = a

	displaced := p.InsertBefore(a, isa.Inst{Op: isa.OpPush, Rd: 3})
	// The node `a` now holds the inserted push; the original nop moved.
	if a.Inst.Op != isa.OpPush {
		t.Fatalf("head op = %s, want push", a.Inst.Op.Name())
	}
	if displaced.Inst.Op != isa.OpNop {
		t.Fatalf("displaced op = %s, want nop", displaced.Inst.Op.Name())
	}
	if a.Fallthrough != displaced || displaced.Fallthrough != b {
		t.Fatal("fallthrough chain broken")
	}
	if !a.Pinned || displaced.Pinned {
		t.Fatal("pin must stay on the sequence head")
	}
	if j.Target != a {
		t.Fatal("branch target must now reach the inserted instruction")
	}
	if p.At(0x1000) != a {
		t.Fatal("At must still reach the sequence head")
	}
}

func TestInsertAfter(t *testing.T) {
	p := NewProgram(testBin())
	a := p.AddOrig(0x1000, isa.Inst{Op: isa.OpNop})
	b := p.AddOrig(0x1001, isa.Inst{Op: isa.OpRet})
	a.Fallthrough = b
	n := p.InsertAfter(a, isa.Inst{Op: isa.OpPop, Rd: 1})
	if a.Fallthrough != n || n.Fallthrough != b {
		t.Fatal("InsertAfter chain wrong")
	}
}

func TestAllocDataAndDefer(t *testing.T) {
	p := NewProgram(testBin())
	base := p.DataEnd()
	if base != 0x2020 {
		t.Fatalf("DataEnd = %#x, want 0x2020", base)
	}
	a1 := p.AllocData(10, 4)
	if a1 != 0x2020 {
		t.Fatalf("first alloc = %#x", a1)
	}
	a2 := p.AllocData(4, 8)
	if a2%8 != 0 || a2 < a1+10 {
		t.Fatalf("aligned alloc = %#x", a2)
	}
	d := p.Defer("bitmap", 16, func(*Layout) ([]byte, error) { return make([]byte, 16), nil })
	if d%4 != 0 {
		t.Fatalf("deferred addr %#x not aligned", d)
	}
	if len(p.Deferred) != 1 || p.Deferred[0].Size != 16 {
		t.Fatal("deferred blob not registered")
	}
	if got := p.DataEnd(); got < d+16 {
		t.Fatalf("DataEnd %#x does not cover deferred blob", got)
	}
}

func TestDataEndWithoutDataSegment(t *testing.T) {
	bin := testBin()
	bin.Segments = bin.Segments[:1]
	p := NewProgram(bin)
	if got := p.DataEnd(); got != 0x2000 { // text ends 0x1040 -> page up
		t.Fatalf("DataEnd = %#x, want 0x2000", got)
	}
}

func TestAtEdgeCases(t *testing.T) {
	p := NewProgram(testBin()) // text is [0x1000, 0x1040)
	if p.At(0x1000) != nil {
		t.Fatal("At on a program with no decoded node must be nil")
	}
	first := p.AddOrig(0x1000, isa.Inst{Op: isa.OpMovI, Rd: 1}) // 6 bytes
	last := p.AddOrig(0x103f, isa.Inst{Op: isa.OpRet})
	if p.At(0x1000) != first || p.At(0x103f) != last {
		t.Fatal("At must reach the nodes at both ends of text")
	}
	for _, tc := range []struct {
		name string
		addr uint32
	}{
		{"below text", 0x0fff},
		{"text end", 0x1040},
		{"data segment", 0x2000},
		{"zero", 0},
		{"top of the address space", 0xffffffff},
		{"middle of an instruction", 0x1003},
		{"undecoded offset", 0x1020},
	} {
		if n := p.At(tc.addr); n != nil {
			t.Errorf("%s: At(%#x) = %s, want nil", tc.name, tc.addr, n)
		}
	}
	// A second decode at an address replaces the first, as an insert
	// into a map would.
	again := p.AddOrig(0x1000, isa.Inst{Op: isa.OpNop})
	if p.At(0x1000) != again {
		t.Fatal("re-adding an address must rebind it")
	}
	// Nodes outside text are still created, just not indexed.
	if n := p.AddOrig(0x2004, isa.Inst{Op: isa.OpNop}); n.OrigAddr != 0x2004 || p.At(0x2004) != nil {
		t.Fatal("a node outside text must be created but not indexed")
	}
}

func TestAtWithoutTextSegment(t *testing.T) {
	bin := testBin()
	bin.Segments = bin.Segments[1:] // data only
	p := NewProgram(bin)
	n := p.AddOrig(0x1000, isa.Inst{Op: isa.OpNop})
	if n == nil || n.OrigAddr != 0x1000 {
		t.Fatal("AddOrig must still create the node")
	}
	for _, a := range []uint32{0, 0x1000, 0x2000} {
		if p.At(a) != nil {
			t.Fatalf("At(%#x) must be nil without a text segment", a)
		}
	}
	if (&Program{}).At(0x1000) != nil {
		t.Fatal("At on a zero Program must be nil")
	}
}

func TestAtFixedWidthSlots(t *testing.T) {
	// A ZVM-64 program's index has one slot per 4 bytes: aligned
	// addresses are indexed, unaligned ones are never instruction starts.
	// With a reservation the aligned nodes are slab nodes in ascending
	// order, so they go to the rank index and nothing to the override;
	// without one, they are heap nodes and go to the override.
	for _, reserve := range []bool{true, false} {
		p := NewProgram(testBin())
		p.Arch = isa.ZVM64
		if reserve {
			p.Reserve(3)
		}
		a := p.AddOrig(0x1004, isa.Inst{Op: isa.OpNop})
		last := p.AddOrig(0x103c, isa.Inst{Op: isa.OpRet})
		if p.At(0x1004) != a || p.At(0x103c) != last {
			t.Fatal("aligned nodes must be indexed")
		}
		if n := p.AddOrig(0x1006, isa.Inst{Op: isa.OpNop}); n == nil || p.At(0x1006) != nil {
			t.Fatal("an unaligned node must be created but not indexed")
		}
		for _, addr := range []uint32{0x1000, 0x1005, 0x1007, 0x1008, 0x1040, 0x0ffc} {
			if n := p.At(addr); n != nil {
				t.Errorf("At(%#x) = %s, want nil", addr, n)
			}
		}
		if want := map[bool]int{true: 2, false: 0}[reserve]; p.starts.Len() != want || len(p.moved) != 2-want {
			t.Fatalf("reserve %v: %d ranked starts and %d overrides, want %d and %d",
				reserve, p.starts.Len(), len(p.moved), want, 2-want)
		}
	}
}

func TestReserveSlab(t *testing.T) {
	p := NewProgram(testBin())
	p.Reserve(3)
	a := p.AddOrig(0x1000, isa.Inst{Op: isa.OpNop})
	b := p.AddOrig(0x1001, isa.Inst{Op: isa.OpNop})
	c := p.AddOrig(0x1002, isa.Inst{Op: isa.OpRet})
	// Past the reservation nodes come from the heap; the slab never
	// grows, so the first three never move.
	d := p.NewInst(isa.Inst{Op: isa.OpHlt})
	for i, n := range []*Instruction{a, b, c, d} {
		if n.ID != int64(i+1) || p.Insts[i] != n {
			t.Fatalf("node %d: ID %d, Insts[%d] = %v", i, n.ID, i, p.Insts[i])
		}
	}
	if p.At(0x1000) != a || p.At(0x1001) != b || p.At(0x1002) != c {
		t.Fatal("slab nodes must be indexed by address")
	}
	if &p.slab[0] != a || &p.slab[2] != c || cap(p.slab) != 3 {
		t.Fatal("reserved nodes must live in the slab")
	}
	a.Fallthrough = b
	if p.Insts[0].Fallthrough != b {
		t.Fatal("slab node lost a link")
	}
	// Rebinding an address to a heap node and back to a slab node.
	p.setAt(0x1001, d)
	if p.At(0x1001) != d {
		t.Fatal("At must follow a rebind to a heap node")
	}
	p.setAt(0x1001, c)
	if p.At(0x1001) != c || p.At(0x1002) != c {
		t.Fatal("At must follow a rebind to a slab node")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a second Reserve must panic: it would move indexed slab positions")
		}
	}()
	p.Reserve(1)
}

// TestAtSlabOutOfOrder pins the rank index's precondition: a slab
// node's rank among the indexed starts must be its slab position. Slab
// nodes taken before any AddOrig, nodes added below an earlier start and
// a second node at one address all go to the override, and At still
// names the node each address was last bound to.
func TestAtSlabOutOfOrder(t *testing.T) {
	p := NewProgram(testBin())
	p.Reserve(5)
	syn := p.NewInst(isa.Inst{Op: isa.OpHlt}) // slab[0], no address
	a := p.AddOrig(0x1004, isa.Inst{Op: isa.OpNop})
	b := p.AddOrig(0x1008, isa.Inst{Op: isa.OpNop})
	low := p.AddOrig(0x1002, isa.Inst{Op: isa.OpNop})
	dup := p.AddOrig(0x1008, isa.Inst{Op: isa.OpRet})
	if &p.slab[0] != syn || &p.slab[4] != dup {
		t.Fatal("every node must come from the slab")
	}
	for _, c := range []struct {
		addr uint32
		want *Instruction
	}{{0x1002, low}, {0x1004, a}, {0x1008, dup}, {0x1000, nil}, {0x1006, nil}} {
		if got := p.At(c.addr); got != c.want {
			t.Errorf("At(%#x) = %v, want %v", c.addr, got, c.want)
		}
	}
	if b.OrigAddr != 0x1008 || p.At(0x1008) == b {
		t.Fatal("the later node at an address must shadow the earlier one")
	}
}

func TestValidate(t *testing.T) {
	p := NewProgram(testBin())
	a := p.AddOrig(0x1000, isa.Inst{Op: isa.OpJmp32})
	if err := p.Validate(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
	a.Target = p.NewInst(isa.Inst{Op: isa.OpRet})
	a.AbsTarget = 0x2000
	if err := p.Validate(); err == nil {
		t.Fatal("both Target and AbsTarget must be rejected")
	}
	a.AbsTarget = 0

	bad := p.NewInst(isa.Inst{Op: isa.OpNop})
	bad.Pinned = true
	if err := p.Validate(); err == nil {
		t.Fatal("pin without OrigAddr must be rejected")
	}
	bad.Pinned = false

	a.Fallthrough = bad // jmp32 has no fallthrough
	if err := p.Validate(); err == nil {
		t.Fatal("terminator with fallthrough must be rejected")
	}
	a.Fallthrough = nil

	p.Fixed = append(p.Fixed, Range{Start: 0x0, End: 0x10})
	if err := p.Validate(); err == nil {
		t.Fatal("fixed range outside text must be rejected")
	}

	// Fixed ranges must be MergeRanges' output: sorted, disjoint and
	// non-adjacent.
	for _, c := range []struct {
		name  string
		fixed []Range
		ok    bool
	}{
		{"merged", []Range{{0x1000, 0x1004}, {0x1008, 0x100c}}, true},
		{"unsorted", []Range{{0x1008, 0x100c}, {0x1000, 0x1004}}, false},
		{"overlapping", []Range{{0x1000, 0x1008}, {0x1004, 0x100c}}, false},
		{"adjacent", []Range{{0x1000, 0x1004}, {0x1004, 0x100c}}, false},
	} {
		p.Fixed = c.fixed
		if err := p.Validate(); (err == nil) != c.ok {
			t.Errorf("%s fixed ranges: Validate = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestPinnedInstsSorted(t *testing.T) {
	p := NewProgram(testBin())
	for _, a := range []uint32{0x1010, 0x1002, 0x1008} {
		n := p.AddOrig(a, isa.Inst{Op: isa.OpNop})
		n.Pinned = true
	}
	pins := p.PinnedInsts()
	if len(pins) != 3 {
		t.Fatalf("pins = %d", len(pins))
	}
	if !sort.SliceIsSorted(pins, func(i, j int) bool { return pins[i].OrigAddr < pins[j].OrigAddr }) {
		t.Fatal("PinnedInsts not sorted")
	}
}

func TestMergeRanges(t *testing.T) {
	got := MergeRanges([]Range{
		{Start: 10, End: 20},
		{Start: 15, End: 25},
		{Start: 25, End: 30}, // adjacent: merges
		{Start: 40, End: 50},
	})
	want := []Range{{Start: 10, End: 30}, {Start: 40, End: 50}}
	if len(got) != len(want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %+v, want %+v", got, want)
		}
	}
	if MergeRanges(nil) != nil {
		t.Fatal("nil input should give nil")
	}
}

// TestQuickInRanges checks the binary search against a linear scan of
// the unmerged ranges, at every address around them.
func TestQuickInRanges(t *testing.T) {
	f := func(pairs []uint8) bool {
		var rs []Range
		for i := 0; i+1 < len(pairs); i += 2 {
			a, b := uint32(pairs[i]), uint32(pairs[i+1])
			if a > b {
				a, b = b, a
			}
			rs = append(rs, Range{Start: a, End: b + 1})
		}
		merged := MergeRanges(rs)
		for addr := uint32(0); addr <= 260; addr++ {
			want := false
			for _, r := range rs {
				want = want || r.Contains(addr)
			}
			if InRanges(merged, addr) != want {
				t.Logf("addr %d in %v: got %v", addr, rs, !want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMergeRangesInvariants(t *testing.T) {
	f := func(pairs []uint16) bool {
		var rs []Range
		for i := 0; i+1 < len(pairs); i += 2 {
			a, b := uint32(pairs[i]), uint32(pairs[i+1])
			if a > b {
				a, b = b, a
			}
			rs = append(rs, Range{Start: a, End: b + 1})
		}
		merged := MergeRanges(rs)
		// Invariant 1: sorted, non-overlapping, non-adjacent.
		for i := 1; i < len(merged); i++ {
			if merged[i].Start <= merged[i-1].End {
				return false
			}
		}
		// Invariant 2: coverage preserved both ways.
		covered := func(set []Range, a uint32) bool {
			for _, r := range set {
				if r.Contains(a) {
					return true
				}
			}
			return false
		}
		for _, r := range rs {
			for _, probe := range []uint32{r.Start, r.End - 1} {
				if !covered(merged, probe) {
					return false
				}
			}
		}
		for _, r := range merged {
			for _, probe := range []uint32{r.Start, r.End - 1} {
				if !covered(rs, probe) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRangeOps(t *testing.T) {
	r := Range{Start: 10, End: 20}
	if r.Len() != 10 || !r.Contains(10) || r.Contains(20) || r.Contains(9) {
		t.Fatal("Range basics wrong")
	}
	if !r.Overlaps(Range{Start: 19, End: 25}) || r.Overlaps(Range{Start: 20, End: 25}) {
		t.Fatal("Overlaps wrong")
	}
}

func TestSaveToDB(t *testing.T) {
	p := NewProgram(testBin())
	a := p.AddOrig(0x1000, isa.Inst{Op: isa.OpCall})
	b := p.AddOrig(0x1005, isa.Inst{Op: isa.OpRet})
	a.Fallthrough = b
	a.Target = b
	a.Pinned = true
	p.Fixed = append(p.Fixed, Range{Start: 0x1020, End: 0x1030})
	p.Functions = append(p.Functions, &Function{Name: "main", Entry: a, Insts: []*Instruction{a, b}})
	p.Warnf("test warning %d", 1)

	db := irdb.New()
	if err := SaveToDB(db, p); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec("SELECT * FROM instructions WHERE pinned = TRUE")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0]["orig_addr"].(int64) != 0x1000 {
		t.Fatalf("pinned query rows = %+v", res.Rows)
	}
	if res.Rows[0]["target"].(int64) != b.ID || res.Rows[0]["fallthrough"].(int64) != b.ID {
		t.Fatal("logical links not persisted")
	}
	res, _ = db.Exec("SELECT * FROM functions")
	if len(res.Rows) != 1 || res.Rows[0]["size"].(int64) != 2 {
		t.Fatalf("functions rows = %+v", res.Rows)
	}
	res, _ = db.Exec("SELECT * FROM fixed_ranges")
	if len(res.Rows) != 1 || res.Rows[0]["length"].(int64) != 0x10 {
		t.Fatalf("fixed rows = %+v", res.Rows)
	}
	res, _ = db.Exec("SELECT * FROM warnings")
	if len(res.Rows) != 1 {
		t.Fatalf("warning rows = %+v", res.Rows)
	}
	// Saving twice must fail cleanly (schema exists).
	if err := SaveToDB(db, p); err == nil {
		t.Fatal("second save should fail")
	}
}

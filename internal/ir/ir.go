// Package ir defines the intermediate representation the rewriting
// pipeline operates on. The central idea, following the paper, is that
// instructions are linked *logically*: a branch references its target
// instruction object, not an address, and a fallthrough references the
// next instruction object, not "PC + length". Addresses from the original
// program survive only in two places: pinned addresses (locations that
// may be reached indirectly at run time and therefore must keep meaning
// in the rewritten binary) and fixed ranges (bytes — usually data
// embedded in text — that must not move).
//
// Program.At maps an original address back to its node. The index is per
// instruction, not per text byte: a rank set over the starts of the
// decoded nodes, which the lifter adds in address order from one slab,
// so a start's rank is its node's slab position; every other address
// goes to a small override that At reads only when it is non-empty.
package ir

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"zipr/internal/binfmt"
	"zipr/internal/isa"
)

// Instruction is one IR instruction node.
type Instruction struct {
	// ID is a unique identifier within the Program (IRDB row id).
	ID int64
	// Inst is the decoded operation. For instructions with a Target or
	// AbsTarget, the displacement/immediate in Inst is meaningless until
	// reassembly patches it.
	Inst isa.Inst
	// OrigAddr is the instruction's address in the original program, or
	// 0 for instructions synthesized by transforms.
	OrigAddr uint32
	// Pinned marks OrigAddr as a pinned address: the rewriter must plant
	// a reference at OrigAddr leading to this instruction.
	Pinned bool
	// Fallthrough is the next instruction in execution order, nil when
	// the instruction does not fall through (jmp, ret, hlt).
	Fallthrough *Instruction
	// Target is the logical link for direct branches, address-forming
	// instructions (lea, movi/pushi holding a code pointer) and anything
	// else that must be resolved to the target's *rewritten* address.
	Target *Instruction
	// AbsTarget is an absolute address in a region that does not move
	// (data segments or fixed text ranges). Exactly one of Target and
	// AbsTarget may be set.
	AbsTarget uint32
	// Deleted marks the instruction as removed by a transform. Deleted
	// nodes stay in the graph so existing references keep a stable
	// anchor; Normalize splices them out before reassembly.
	Deleted bool
}

// String renders the node for diagnostics.
func (i *Instruction) String() string {
	s := fmt.Sprintf("#%d %s", i.ID, i.Inst.String())
	if i.OrigAddr != 0 {
		s += fmt.Sprintf(" @%#x", i.OrigAddr)
	}
	if i.Pinned {
		s += " [pinned]"
	}
	if i.Target != nil {
		s += fmt.Sprintf(" ->#%d", i.Target.ID)
	}
	if i.AbsTarget != 0 {
		s += fmt.Sprintf(" ->%#x", i.AbsTarget)
	}
	return s
}

// Range is a half-open byte range [Start, End).
type Range struct {
	Start, End uint32
}

// Len returns the range length.
func (r Range) Len() uint32 { return r.End - r.Start }

// Contains reports whether addr lies inside the range.
func (r Range) Contains(addr uint32) bool { return addr >= r.Start && addr < r.End }

// Overlaps reports whether two ranges share any byte.
func (r Range) Overlaps(o Range) bool { return r.Start < o.End && o.Start < r.End }

// Function is a unit of the transform API's iteration: an entry plus the
// instructions reached from it without following calls.
type Function struct {
	Name  string
	Entry *Instruction
	Insts []*Instruction
}

// Layout gives deferred-data fills access to the final code placement.
type Layout struct {
	// AddrOf returns the rewritten address of an IR instruction.
	AddrOf func(*Instruction) (uint32, bool)
	// TextBase and TextEnd bound the rewritten text image (including the
	// overflow area).
	TextBase, TextEnd uint32
	// PinnedAddrs lists every pinned original address (each holds a
	// reference in the rewritten binary and is a legal indirect target).
	PinnedAddrs []uint32
}

// Deferred is a late-bound data blob: its address and size are fixed at
// transform time (in the data extension), but its contents can only be
// computed after reassembly has placed all code (e.g. CFI target
// bitmaps).
type Deferred struct {
	Name string
	Addr uint32
	Size int
	Fill func(*Layout) ([]byte, error)
}

// Program is the complete IR of one binary under transformation.
type Program struct {
	// Bin is the original binary (never mutated).
	Bin *binfmt.Binary
	// Arch is the instruction-set architecture the program's bytes are
	// expressed in; nil means the default (ZVM-32), so IR built before
	// the architecture abstraction keeps working unchanged. Read it
	// through ISA().
	Arch isa.Arch
	// Insts lists every IR instruction, in creation order.
	Insts []*Instruction
	// Entry is the program entry instruction (nil for libraries).
	Entry *Instruction
	// Fixed lists text ranges whose original bytes must stay in place.
	Fixed []Range
	// FixedEntries lists addresses inside fixed ranges that the program
	// legitimately reaches indirectly (in-text jump-table slots, return
	// sites of calls decoded in ambiguous regions). Analyses that need
	// the set of legal indirect targets (e.g. CFI) combine these with
	// the pinned addresses.
	FixedEntries []uint32
	// Functions is the function partition used by the transform API.
	Functions []*Function
	// Deferred lists late-bound data blobs to patch after placement.
	Deferred []*Deferred
	// DataExtra is appended to the original data segment; transforms
	// allocate from it via AllocData.
	DataExtra []byte
	// Warnings accumulates non-fatal analysis diagnostics.
	Warnings []string

	nextID int64
	// starts indexes the decoded nodes for At by slot, one slot per
	// Align() bytes of text from textBase: it holds the slot of every
	// slab node that AddOrig registered in ascending address order, so a
	// start's rank is its node's slab index. It holds no pointers, so the
	// collector never scans it.
	starts    isa.RankSet
	textBase  uint32
	text      Range
	slotShift uint8
	// moved indexes every other address: nodes outside the slab or
	// registered out of order, and the addresses Normalize re-points. It
	// shadows starts and is consulted only when non-empty.
	moved map[uint32]*Instruction
	// slab holds the nodes Reserve preallocated; slab[i] has ID
	// slabBase+i. NewInst takes from it until it is full and never
	// appends past its capacity, so nodes never move.
	slab     []Instruction
	slabBase int64
}

// ISA returns the program's architecture, defaulting to ZVM-32.
func (p *Program) ISA() isa.Arch { return isa.Of(p.Arch) }

// NewProgram creates an empty IR for bin.
func NewProgram(bin *binfmt.Binary) *Program {
	return &Program{Bin: bin}
}

// Reserve preallocates room for n more nodes: the next n NewInst calls
// take their nodes from one slab instead of one heap object each. A
// lifter that knows its decoded count calls it once, before the first
// AddOrig.
func (p *Program) Reserve(n int) {
	if p.slab != nil {
		panic("ir: Reserve called twice")
	}
	p.Insts = slices.Grow(p.Insts, n)
	p.slab = make([]Instruction, 0, n)
	p.slabBase = p.nextID + 1
}

// NewInst creates and registers a fresh instruction node.
func (p *Program) NewInst(in isa.Inst) *Instruction {
	p.nextID++
	var node *Instruction
	if len(p.slab) < cap(p.slab) {
		p.slab = append(p.slab, Instruction{ID: p.nextID, Inst: in})
		node = &p.slab[len(p.slab)-1]
	} else {
		node = &Instruction{ID: p.nextID, Inst: in}
	}
	p.Insts = append(p.Insts, node)
	return node
}

// MaxID returns the largest instruction ID handed out so far. IDs are
// dense — NewInst numbers nodes 1…MaxID — so a slice of MaxID()+1
// entries indexes every node by ID.
func (p *Program) MaxID() int64 { return p.nextID }

// AddOrig registers an instruction decoded from the original binary at
// addr and indexes it by address (At) when addr lies in text.
func (p *Program) AddOrig(addr uint32, in isa.Inst) *Instruction {
	node := p.NewInst(in)
	node.OrigAddr = addr
	p.setAt(addr, node)
	return node
}

// At returns the instruction decoded at original address addr, or nil
// when addr lies outside text or starts no decoded instruction. After
// Normalize, the address of a deleted pinned instruction reaches the
// node that took over its pin.
func (p *Program) At(addr uint32) *Instruction {
	if len(p.moved) != 0 {
		if n, ok := p.moved[addr]; ok {
			return n
		}
	}
	off := addr - p.textBase
	i := off >> p.slotShift
	if i<<p.slotShift != off {
		return nil
	}
	if r, ok := p.starts.Rank(int(i)); ok {
		return &p.slab[r]
	}
	return nil
}

// setAt makes At(addr) return node. Addresses outside text, or not
// aligned to an instruction boundary of the ISA, are not indexed. The
// index is allocated on first use, with one slot per Align() bytes.
func (p *Program) setAt(addr uint32, node *Instruction) {
	if p.moved == nil {
		t := p.Bin.Text()
		if t == nil {
			return
		}
		align := p.ISA().Align()
		p.slotShift = uint8(bits.TrailingZeros32(align))
		p.text = Range{Start: t.VAddr, End: t.End()}
		p.textBase = t.VAddr &^ (align - 1)
		p.starts = isa.NewRankSet(int((p.text.End - p.textBase + align - 1) >> p.slotShift))
		p.moved = map[uint32]*Instruction{}
	}
	off := addr - p.textBase
	if !p.text.Contains(addr) || off&(1<<p.slotShift-1) != 0 {
		return
	}
	if s := node.ID - p.slabBase; s == int64(p.starts.Len()) && s < int64(len(p.slab)) && &p.slab[s] == node {
		if p.starts.Append(int(off >> p.slotShift)) {
			if len(p.moved) != 0 {
				delete(p.moved, addr)
			}
			return
		}
	}
	p.moved[addr] = node
}

// Warnf records a non-fatal diagnostic.
func (p *Program) Warnf(format string, args ...any) {
	p.Warnings = append(p.Warnings, fmt.Sprintf(format, args...))
}

// TextRange returns the original text segment's address range.
func (p *Program) TextRange() Range {
	t := p.Bin.Text()
	return Range{Start: t.VAddr, End: t.End()}
}

// DataEnd returns the first address past the original data segment plus
// any extension allocated so far. Programs without a data segment extend
// from the page after text.
func (p *Program) DataEnd() uint32 {
	d := p.Bin.DataSeg()
	if d == nil {
		t := p.TextRange()
		return (t.End + 0xFFF) &^ 0xFFF
	}
	return d.End() + uint32(len(p.DataExtra))
}

// AllocData reserves size bytes (aligned) in the data extension and
// returns their address. The space is zero-filled; deferred blobs can
// overwrite it after placement.
func (p *Program) AllocData(size int, align uint32) uint32 {
	if align == 0 {
		align = 1
	}
	cur := p.DataEnd()
	pad := (align - cur%align) % align
	p.DataExtra = append(p.DataExtra, make([]byte, pad+uint32(size))...)
	return cur + pad
}

// Defer registers a late-bound blob occupying size bytes of data
// extension and returns its address.
func (p *Program) Defer(name string, size int, fill func(*Layout) ([]byte, error)) uint32 {
	addr := p.AllocData(size, 4)
	p.Deferred = append(p.Deferred, &Deferred{Name: name, Addr: addr, Size: size, Fill: fill})
	return addr
}

// PinnedInsts returns all pinned instructions sorted by original address.
func (p *Program) PinnedInsts() []*Instruction {
	n := 0
	for _, i := range p.Insts {
		if i.Pinned {
			n++
		}
	}
	out := make([]*Instruction, 0, n)
	for _, i := range p.Insts {
		if i.Pinned {
			out = append(out, i)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].OrigAddr < out[b].OrigAddr })
	return out
}

// InsertBefore splices a new instruction ahead of node such that every
// existing logical reference to node (branch targets, pinned addresses,
// fallthroughs) now executes the new instruction first. It does this by
// moving node's operation into a fresh node and overwriting node with
// the new operation, so `node` becomes the inserted instruction. The
// displaced original is returned.
func (p *Program) InsertBefore(node *Instruction, in isa.Inst) *Instruction {
	moved := p.NewInst(node.Inst)
	moved.Target = node.Target
	moved.AbsTarget = node.AbsTarget
	moved.Fallthrough = node.Fallthrough
	// A deleted-flag stays with the displaced original operation; the
	// freshly inserted instruction is live by definition.
	moved.Deleted = node.Deleted

	node.Inst = in
	node.Target = nil
	node.AbsTarget = 0
	node.Fallthrough = moved
	node.Deleted = false
	return moved
}

// InsertAfter splices a new instruction between node and its
// fallthrough, returning the new node. It must not be used after
// instructions without a fallthrough.
func (p *Program) InsertAfter(node *Instruction, in isa.Inst) *Instruction {
	fresh := p.NewInst(in)
	fresh.Fallthrough = node.Fallthrough
	node.Fallthrough = fresh
	return fresh
}

// Delete removes node from the program: execution that would have
// reached it continues at its fallthrough. Deleting an instruction with
// no fallthrough (a terminator) or a pinned instruction whose removal
// would leave the pin dangling is rejected.
func (p *Program) Delete(node *Instruction) error {
	if node.Fallthrough == nil {
		return fmt.Errorf("ir: cannot delete terminator %s", node)
	}
	node.Deleted = true
	return nil
}

// resolveDeleted follows fallthrough links through deleted nodes.
func resolveDeleted(n *Instruction) *Instruction {
	seen := 0
	for n != nil && n.Deleted {
		n = n.Fallthrough
		seen++
		if seen > 1_000_000 {
			return nil // cycle of deleted nodes; caught by Normalize
		}
	}
	return n
}

// Normalize splices deleted instructions out of every link (fallthrough
// chains, branch targets, pins, functions, the entry) so the
// reassembler never sees them. Transforms call p.Delete freely; the
// pipeline normalizes once before reassembly. A program with no
// deleted node is returned untouched, without allocating.
func (p *Program) Normalize() error {
	if !slices.ContainsFunc(p.Insts, func(n *Instruction) bool { return n.Deleted }) {
		return nil
	}
	live := make([]*Instruction, 0, len(p.Insts))
	for _, n := range p.Insts {
		if n.Deleted {
			if n.Pinned {
				// The pinned address must keep meaning: move the pin to
				// the instruction execution would reach instead. When
				// that instruction carries its own original address, an
				// alias jump keeps both pins representable.
				repl := resolveDeleted(n.Fallthrough)
				if repl == nil {
					return fmt.Errorf("ir: deleting %s leaves pinned address %#x dangling", n, n.OrigAddr)
				}
				if repl.OrigAddr != 0 && repl.OrigAddr != n.OrigAddr {
					alias := p.NewInst(isa.Inst{Op: isa.OpJmp32})
					alias.Target = repl
					repl = alias
					live = append(live, alias)
				}
				if repl.OrigAddr == 0 {
					repl.OrigAddr = n.OrigAddr
				}
				repl.Pinned = true
				p.setAt(n.OrigAddr, repl)
			}
			continue
		}
		live = append(live, n)
	}
	for _, n := range live {
		if n.Fallthrough != nil {
			ft := resolveDeleted(n.Fallthrough)
			if ft == nil && n.Inst.HasFallthrough() {
				return fmt.Errorf("ir: %s falls through only to deleted code", n)
			}
			n.Fallthrough = ft
		}
		if n.Target != nil {
			t := resolveDeleted(n.Target)
			if t == nil {
				return fmt.Errorf("ir: %s targets only deleted code", n)
			}
			n.Target = t
		}
	}
	if p.Entry != nil {
		e := resolveDeleted(p.Entry)
		if e == nil {
			return fmt.Errorf("ir: program entry deleted with no successor")
		}
		p.Entry = e
	}
	for _, f := range p.Functions {
		f.Entry = resolveDeleted(f.Entry)
		kept := f.Insts[:0]
		for _, n := range f.Insts {
			if !n.Deleted {
				kept = append(kept, n)
			}
		}
		f.Insts = kept
	}
	p.Insts = live
	return nil
}

// Validate checks IR invariants: Target/AbsTarget exclusivity, pinned
// instructions carrying original addresses, fallthrough presence
// matching the ISA, and fixed ranges lying inside text.
func (p *Program) Validate() error {
	text := p.TextRange()
	for _, i := range p.Insts {
		if i.Target != nil && i.AbsTarget != 0 {
			return fmt.Errorf("ir: %s has both Target and AbsTarget", i)
		}
		if i.Pinned && i.OrigAddr == 0 {
			return fmt.Errorf("ir: %s pinned without original address", i)
		}
		if !i.Inst.HasFallthrough() && i.Fallthrough != nil {
			return fmt.Errorf("ir: %s is a terminator with a fallthrough", i)
		}
	}
	for _, r := range p.Fixed {
		if r.Start >= r.End {
			return fmt.Errorf("ir: empty fixed range %+v", r)
		}
		if r.Start < text.Start || r.End > text.End {
			return fmt.Errorf("ir: fixed range %+v outside text %+v", r, text)
		}
	}
	return nil
}

// InRanges reports whether addr lies inside one of rs, which must be
// sorted and disjoint — MergeRanges' output — by binary search.
func InRanges(rs []Range, addr uint32) bool {
	lo, hi := 0, len(rs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if rs[m].End <= addr {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo < len(rs) && rs[lo].Start <= addr
}

// MergeRanges sorts and coalesces overlapping or adjacent ranges.
func MergeRanges(rs []Range) []Range {
	if len(rs) == 0 {
		return nil
	}
	sorted := append([]Range(nil), rs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	out := []Range{sorted[0]}
	for _, r := range sorted[1:] {
		last := &out[len(out)-1]
		if r.Start <= last.End {
			if r.End > last.End {
				last.End = r.End
			}
			continue
		}
		out = append(out, r)
	}
	return out
}

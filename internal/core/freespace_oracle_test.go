package core

import (
	"fmt"
	"sort"

	"zipr/internal/ir"
)

// FreeSpace tracks the unallocated byte ranges of the rewritten text
// segment. It starts as the original text range minus fixed regions;
// pinned references, chains, sleds and dollops carve pieces out of it,
// and inline-pin placement can return unused tails.
//
// The reassembly pipeline runs on Alloc (alloc.go), the indexed
// allocator. FreeSpace is the straightforward sorted-slice reference
// implementation that the differential fuzz target (FuzzAlloc), the
// allocator unit tests and the allocator benches compare against, so it
// lives in a test file and never ships. It implements the same Space
// query interface, each query as a plain linear scan.
type FreeSpace struct {
	blocks []ir.Range // sorted by Start, disjoint, non-empty
	align  uint32     // target ISA instruction alignment (0 or 1: none)
}

var _ Space = (*FreeSpace)(nil)

// NewFreeSpace creates a manager covering whole minus the holes.
func NewFreeSpace(whole ir.Range, holes []ir.Range) *FreeSpace {
	fs := &FreeSpace{}
	cur := whole.Start
	for _, h := range ir.MergeRanges(holes) {
		if h.Start > cur {
			end := h.Start
			if end > whole.End {
				end = whole.End
			}
			if end > cur {
				fs.blocks = append(fs.blocks, ir.Range{Start: cur, End: end})
			}
		}
		if h.End > cur {
			cur = h.End
		}
	}
	if cur < whole.End {
		fs.blocks = append(fs.blocks, ir.Range{Start: cur, End: whole.End})
	}
	return fs
}

// Blocks returns a copy of the current free blocks, sorted by address.
func (fs *FreeSpace) Blocks() []ir.Range {
	return append([]ir.Range(nil), fs.blocks...)
}

// SetAlign declares the target ISA's instruction alignment, mirroring
// Alloc.SetAlign for the differential tests.
func (fs *FreeSpace) SetAlign(align uint32) { fs.align = align }

// Align implements Space.
func (fs *FreeSpace) Align() uint32 {
	if fs.align == 0 {
		return 1
	}
	return fs.align
}

// NumBlocks implements Space.
func (fs *FreeSpace) NumBlocks() int { return len(fs.blocks) }

// TotalFree returns the number of free bytes.
func (fs *FreeSpace) TotalFree() int {
	total := 0
	for _, b := range fs.blocks {
		total += int(b.Len())
	}
	return total
}

// Largest returns the lowest-addressed free block of maximal size.
func (fs *FreeSpace) Largest() (ir.Range, bool) {
	var best ir.Range
	found := false
	for _, b := range fs.blocks {
		if !found || b.Len() > best.Len() {
			best, found = b, true
		}
	}
	return best, found
}

// LowestFit implements Space by linear scan.
func (fs *FreeSpace) LowestFit(size int) (ir.Range, bool) {
	for _, b := range fs.blocks {
		if int(b.Len()) >= size {
			return b, true
		}
	}
	return ir.Range{}, false
}

// HighestFit implements Space by linear scan.
func (fs *FreeSpace) HighestFit(size int) (ir.Range, bool) {
	for i := len(fs.blocks) - 1; i >= 0; i-- {
		if int(fs.blocks[i].Len()) >= size {
			return fs.blocks[i], true
		}
	}
	return ir.Range{}, false
}

// BestFit implements Space by linear scan: the smallest fitting block,
// lowest-addressed among equals.
func (fs *FreeSpace) BestFit(size int) (ir.Range, bool) {
	best := -1
	for i, b := range fs.blocks {
		if int(b.Len()) < size {
			continue
		}
		if best < 0 || b.Len() < fs.blocks[best].Len() {
			best = i
		}
	}
	if best < 0 {
		return ir.Range{}, false
	}
	return fs.blocks[best], true
}

// NearestFit implements Space by linear scan: the fitting block whose
// start is closest to hint, lower-addressed among equidistant pairs.
func (fs *FreeSpace) NearestFit(hint uint32, size int) (ir.Range, bool) {
	best := -1
	var bestDist uint64
	for i, b := range fs.blocks {
		if int(b.Len()) < size {
			continue
		}
		d := int64(b.Start) - int64(hint)
		if d < 0 {
			d = -d
		}
		if best < 0 || uint64(d) < bestDist {
			best, bestDist = i, uint64(d)
		}
	}
	if best < 0 {
		return ir.Range{}, false
	}
	return fs.blocks[best], true
}

// VisitFits implements Space by linear scan.
func (fs *FreeSpace) VisitFits(size int, fn func(ir.Range) bool) {
	for _, b := range fs.blocks {
		if int(b.Len()) >= size && !fn(b) {
			return
		}
	}
}

// Visit implements Space.
func (fs *FreeSpace) Visit(fn func(ir.Range) bool) {
	for _, b := range fs.blocks {
		if !fn(b) {
			return
		}
	}
}

// blockIndexContaining finds the block containing r, or -1.
func (fs *FreeSpace) blockIndexContaining(r ir.Range) int {
	idx := sort.Search(len(fs.blocks), func(i int) bool { return fs.blocks[i].End > r.Start })
	if idx < len(fs.blocks) {
		b := fs.blocks[idx]
		if r.Start >= b.Start && r.End <= b.End {
			return idx
		}
	}
	return -1
}

// Contains reports whether r is entirely free.
func (fs *FreeSpace) Contains(r ir.Range) bool {
	return fs.blockIndexContaining(r) >= 0
}

// Carve removes r, which must lie entirely inside one free block.
func (fs *FreeSpace) Carve(r ir.Range) error {
	if r.Start >= r.End {
		return fmt.Errorf("core: carve of empty range %+v", r)
	}
	idx := fs.blockIndexContaining(r)
	if idx < 0 {
		return fmt.Errorf("core: carve %+v not in free space", r)
	}
	b := fs.blocks[idx]
	var repl []ir.Range
	if b.Start < r.Start {
		repl = append(repl, ir.Range{Start: b.Start, End: r.Start})
	}
	if r.End < b.End {
		repl = append(repl, ir.Range{Start: r.End, End: b.End})
	}
	fs.blocks = append(fs.blocks[:idx], append(repl, fs.blocks[idx+1:]...)...)
	return nil
}

// Release returns r to the free pool, merging with its (at most two)
// adjacent neighbors. The insertion point is found by binary search and
// the merge touches only the neighbors — no re-sort of the whole list.
// Releasing bytes that are already free is a double-free by the
// caller; the old behavior silently unioned the overlap away, which
// masked accounting bugs, so it now panics.
func (fs *FreeSpace) Release(r ir.Range) {
	if r.Start >= r.End {
		return
	}
	// idx is where r would be inserted to keep blocks sorted by Start.
	idx := sort.Search(len(fs.blocks), func(i int) bool { return fs.blocks[i].Start >= r.Start })
	if idx > 0 && fs.blocks[idx-1].End > r.Start {
		panic(fmt.Sprintf("core: double free of %+v (overlaps free block %+v)", r, fs.blocks[idx-1]))
	}
	if idx < len(fs.blocks) && fs.blocks[idx].Start < r.End {
		panic(fmt.Sprintf("core: double free of %+v (overlaps free block %+v)", r, fs.blocks[idx]))
	}
	mergeL := idx > 0 && fs.blocks[idx-1].End == r.Start
	mergeR := idx < len(fs.blocks) && fs.blocks[idx].Start == r.End
	switch {
	case mergeL && mergeR:
		fs.blocks[idx-1].End = fs.blocks[idx].End
		fs.blocks = append(fs.blocks[:idx], fs.blocks[idx+1:]...)
	case mergeL:
		fs.blocks[idx-1].End = r.End
	case mergeR:
		fs.blocks[idx].Start = r.Start
	default:
		fs.blocks = append(fs.blocks, ir.Range{})
		copy(fs.blocks[idx+1:], fs.blocks[idx:])
		fs.blocks[idx] = r
	}
}

// BlockStartingAt returns the free block that begins exactly at addr,
// located by binary search.
func (fs *FreeSpace) BlockStartingAt(addr uint32) (ir.Range, bool) {
	idx := sort.Search(len(fs.blocks), func(i int) bool { return fs.blocks[i].Start >= addr })
	if idx < len(fs.blocks) && fs.blocks[idx].Start == addr {
		return fs.blocks[idx], true
	}
	return ir.Range{}, false
}

// FindWithin returns the lowest free range of exactly size bytes that
// lies wholly inside window, if any.
func (fs *FreeSpace) FindWithin(window ir.Range, size uint32) (ir.Range, bool) {
	for _, b := range fs.blocks {
		lo := b.Start
		if lo < window.Start {
			lo = window.Start
		}
		hi := b.End
		if hi > window.End {
			hi = window.End
		}
		if hi > lo && hi-lo >= size {
			return ir.Range{Start: lo, End: lo + size}, true
		}
	}
	return ir.Range{}, false
}

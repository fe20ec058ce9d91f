package core

import (
	"fmt"

	"zipr/internal/ir"
)

// Space is the read-only query view of free space that a Placer chooses
// from. It replaces the old []ir.Range snapshot contract: instead of
// copying the full block list on every placement decision, placers ask
// the allocator targeted questions, each answered in O(log n) (see the
// per-method notes). Blocks are always address-sorted, disjoint and
// non-empty; every returned range is a whole free block unless stated
// otherwise.
type Space interface {
	// NumBlocks returns the number of free blocks. O(1).
	NumBlocks() int
	// TotalFree returns the number of free bytes. O(1).
	TotalFree() int
	// Largest returns the lowest-addressed free block of maximal size.
	// O(log n).
	Largest() (ir.Range, bool)
	// LowestFit returns the lowest-addressed block of at least size
	// bytes. O(log n).
	LowestFit(size int) (ir.Range, bool)
	// HighestFit returns the highest-addressed block of at least size
	// bytes. O(log n).
	HighestFit(size int) (ir.Range, bool)
	// BestFit returns the smallest block of at least size bytes, the
	// lowest-addressed one among equals. O(k + log n) over the k fitting
	// blocks (pruned scan; only used on placement paths without a hint,
	// which do not occur in the pipeline's hot loop).
	BestFit(size int) (ir.Range, bool)
	// NearestFit returns the fitting block whose start address is
	// closest to hint, the lower-addressed one when two are equidistant.
	// O(log n).
	NearestFit(hint uint32, size int) (ir.Range, bool)
	// VisitFits calls fn on every block of at least size bytes in
	// address order until fn returns false. O(k + log n) over the k
	// fitting blocks.
	VisitFits(size int, fn func(ir.Range) bool)
	// Visit calls fn on every block in address order until fn returns
	// false.
	Visit(fn func(ir.Range) bool)
	// Align returns the instruction alignment of the target ISA (1 on
	// variable-width ISAs). Placers that synthesize interior offsets —
	// rather than returning block starts, which are pre-aligned — must
	// round them down to this. O(1).
	Align() uint32
}

// Alloc is the indexed free-space allocator of the reassembly hot path:
// an address-ordered AVL tree over the free blocks, augmented with the
// maximal block length per subtree. The augmentation is what makes the
// fit queries logarithmic — a subtree whose max length is below the
// request can be pruned without visiting it. Mutations (Carve, Release)
// are O(log n) with no global re-sort and no full-list copy, unlike the
// slice-splicing FreeSpace it replaces (which survives, test-only, in
// freespace_oracle_test.go as the reference for differential tests).
type Alloc struct {
	root  *anode
	count int
	total int
	align uint32 // target ISA instruction alignment (0 or 1: none)
	pool  *anode // freelist of recycled nodes, chained through l
}

var _ Space = (*Alloc)(nil)

// anode is one AVL node holding one free block. The tree is keyed by
// blk.Start (unique: blocks are disjoint).
type anode struct {
	blk    ir.Range
	l, r   *anode
	h      int32  // height of the subtree rooted here
	maxLen uint32 // max blk.Len() in the subtree rooted here
}

func nodeHeight(n *anode) int32 {
	if n == nil {
		return 0
	}
	return n.h
}

func nodeMaxLen(n *anode) uint32 {
	if n == nil {
		return 0
	}
	return n.maxLen
}

// update recomputes the node's height and max-length augmentation from
// its children.
func (n *anode) update() {
	hl, hr := nodeHeight(n.l), nodeHeight(n.r)
	if hl > hr {
		n.h = hl + 1
	} else {
		n.h = hr + 1
	}
	m := n.blk.Len()
	if v := nodeMaxLen(n.l); v > m {
		m = v
	}
	if v := nodeMaxLen(n.r); v > m {
		m = v
	}
	n.maxLen = m
}

func rotateLeft(n *anode) *anode {
	p := n.r
	n.r = p.l
	p.l = n
	n.update()
	p.update()
	return p
}

func rotateRight(n *anode) *anode {
	p := n.l
	n.l = p.r
	p.r = n
	n.update()
	p.update()
	return p
}

// rebalance restores the AVL invariant at n after a child changed.
func rebalance(n *anode) *anode {
	n.update()
	switch bf := nodeHeight(n.l) - nodeHeight(n.r); {
	case bf > 1:
		if nodeHeight(n.l.l) < nodeHeight(n.l.r) {
			n.l = rotateLeft(n.l)
		}
		return rotateRight(n)
	case bf < -1:
		if nodeHeight(n.r.r) < nodeHeight(n.r.l) {
			n.r = rotateRight(n.r)
		}
		return rotateLeft(n)
	}
	return n
}

func (a *Alloc) newNode(blk ir.Range) *anode {
	n := a.pool
	if n != nil {
		a.pool = n.l
		*n = anode{}
	} else {
		n = &anode{}
	}
	n.blk = blk
	n.update()
	a.count++
	a.total += int(blk.Len())
	return n
}

func (a *Alloc) freeNode(n *anode) {
	a.count--
	a.total -= int(n.blk.Len())
	n.l, n.r = a.pool, nil
	a.pool = n
}

// insert adds a block with a key not present in the tree.
func (a *Alloc) insert(n *anode, blk ir.Range) *anode {
	if n == nil {
		return a.newNode(blk)
	}
	if blk.Start < n.blk.Start {
		n.l = a.insert(n.l, blk)
	} else {
		n.r = a.insert(n.r, blk)
	}
	return rebalance(n)
}

// remove deletes the node keyed start, which must exist.
func (a *Alloc) remove(n *anode, start uint32) *anode {
	switch {
	case start < n.blk.Start:
		n.l = a.remove(n.l, start)
	case start > n.blk.Start:
		n.r = a.remove(n.r, start)
	default:
		if n.l == nil || n.r == nil {
			c := n.l
			if c == nil {
				c = n.r
			}
			a.freeNode(n)
			return c
		}
		// Two children: swap blocks with the in-order successor, then
		// delete that successor (now holding the doomed block) from the
		// right subtree, where the search reaches it going left at
		// every step.
		min := n.r
		for min.l != nil {
			min = min.l
		}
		old := n.blk
		n.blk = min.blk
		min.blk = old
		n.r = a.remove(n.r, old.Start)
	}
	return rebalance(n)
}

// reshape updates the block keyed oldStart in place to nb without
// rebalancing. Callers guarantee nb keeps the tree ordered (its span
// stays strictly between the neighboring blocks), so only the path's
// max-length augmentation needs recomputing. O(log n), no rotations.
func (a *Alloc) reshape(n *anode, oldStart uint32, nb ir.Range) {
	switch {
	case oldStart < n.blk.Start:
		a.reshape(n.l, oldStart, nb)
	case oldStart > n.blk.Start:
		a.reshape(n.r, oldStart, nb)
	default:
		a.total += int(nb.Len()) - int(n.blk.Len())
		n.blk = nb
	}
	n.update()
}

// NewAlloc creates an allocator covering whole minus the holes
// (identical construction semantics to the test oracle NewFreeSpace).
func NewAlloc(whole ir.Range, holes []ir.Range) *Alloc {
	var blocks []ir.Range
	cur := whole.Start
	for _, h := range ir.MergeRanges(holes) {
		if h.Start > cur {
			end := h.Start
			if end > whole.End {
				end = whole.End
			}
			if end > cur {
				blocks = append(blocks, ir.Range{Start: cur, End: end})
			}
		}
		if h.End > cur {
			cur = h.End
		}
	}
	if cur < whole.End {
		blocks = append(blocks, ir.Range{Start: cur, End: whole.End})
	}
	return AllocFromBlocks(blocks)
}

// AllocFromBlocks builds an allocator over an explicit block list, which
// must be address-sorted, disjoint and non-empty (the Space invariant).
// Used by tests and fuzzing; NewAlloc is the pipeline constructor.
func AllocFromBlocks(blocks []ir.Range) *Alloc {
	a := &Alloc{}
	a.root = a.build(blocks)
	return a
}

// build constructs a perfectly balanced subtree from sorted blocks.
func (a *Alloc) build(blocks []ir.Range) *anode {
	if len(blocks) == 0 {
		return nil
	}
	mid := len(blocks) / 2
	n := a.newNode(blocks[mid])
	n.l = a.build(blocks[:mid])
	n.r = a.build(blocks[mid+1:])
	n.update()
	return n
}

// SetAlign declares the target ISA's instruction alignment so placers
// querying this space can keep synthesized offsets fetchable.
func (a *Alloc) SetAlign(align uint32) { a.align = align }

// Align implements Space.
func (a *Alloc) Align() uint32 {
	if a.align == 0 {
		return 1
	}
	return a.align
}

// NumBlocks implements Space.
func (a *Alloc) NumBlocks() int { return a.count }

// TotalFree implements Space.
func (a *Alloc) TotalFree() int { return a.total }

// Visit implements Space.
func (a *Alloc) Visit(fn func(ir.Range) bool) { visitAll(a.root, fn) }

func visitAll(n *anode, fn func(ir.Range) bool) bool {
	if n == nil {
		return true
	}
	return visitAll(n.l, fn) && fn(n.blk) && visitAll(n.r, fn)
}

// VisitFits implements Space: in-order over fitting blocks only,
// pruning subtrees whose max length is below size.
func (a *Alloc) VisitFits(size int, fn func(ir.Range) bool) {
	visitFits(a.root, fitLen(size), fn)
}

func visitFits(n *anode, size uint32, fn func(ir.Range) bool) bool {
	if n == nil || n.maxLen < size {
		return true
	}
	if !visitFits(n.l, size, fn) {
		return false
	}
	if n.blk.Len() >= size && !fn(n.blk) {
		return false
	}
	return visitFits(n.r, size, fn)
}

// AppendBlocks appends every free block to dst in address order and
// returns it — the snapshot escape hatch for tests and the legacy
// placers; the pipeline never calls it.
func (a *Alloc) AppendBlocks(dst []ir.Range) []ir.Range {
	a.Visit(func(b ir.Range) bool {
		dst = append(dst, b)
		return true
	})
	return dst
}

// Blocks returns a fresh copy of the current free blocks.
func (a *Alloc) Blocks() []ir.Range {
	if a.count == 0 {
		return nil
	}
	return a.AppendBlocks(make([]ir.Range, 0, a.count))
}

// fitLen clamps a byte-count request to the uint32 length domain.
func fitLen(size int) uint32 {
	if size <= 0 {
		return 0
	}
	if size > int(^uint32(0)>>1) {
		return ^uint32(0)
	}
	return uint32(size)
}

// floor returns the node with the greatest start <= addr, or nil.
func (a *Alloc) floor(addr uint32) *anode {
	var best *anode
	for n := a.root; n != nil; {
		if n.blk.Start <= addr {
			best = n
			n = n.r
		} else {
			n = n.l
		}
	}
	return best
}

// Largest implements Space: the leftmost block of maximal length.
func (a *Alloc) Largest() (ir.Range, bool) {
	n := a.root
	if n == nil {
		return ir.Range{}, false
	}
	m := n.maxLen
	for {
		if n.l != nil && n.l.maxLen == m {
			n = n.l
			continue
		}
		if n.blk.Len() == m {
			return n.blk, true
		}
		n = n.r
	}
}

// LowestFit implements Space.
func (a *Alloc) LowestFit(size int) (ir.Range, bool) {
	sz := fitLen(size)
	n := a.root
	if n == nil || n.maxLen < sz {
		return ir.Range{}, false
	}
	for {
		if n.l != nil && n.l.maxLen >= sz {
			n = n.l
			continue
		}
		if n.blk.Len() >= sz {
			return n.blk, true
		}
		n = n.r
	}
}

// HighestFit implements Space.
func (a *Alloc) HighestFit(size int) (ir.Range, bool) {
	sz := fitLen(size)
	n := a.root
	if n == nil || n.maxLen < sz {
		return ir.Range{}, false
	}
	for {
		if n.r != nil && n.r.maxLen >= sz {
			n = n.r
			continue
		}
		if n.blk.Len() >= sz {
			return n.blk, true
		}
		n = n.l
	}
}

// BestFit implements Space: pruned in-order scan tracking the smallest
// fitting block (ties resolve to the first, i.e. lowest-addressed, one),
// with an early exit on a perfect fit.
func (a *Alloc) BestFit(size int) (ir.Range, bool) {
	sz := fitLen(size)
	var best ir.Range
	found := false
	visitFits(a.root, sz, func(b ir.Range) bool {
		if !found || b.Len() < best.Len() {
			best, found = b, true
		}
		return best.Len() != sz // perfect fit: stop scanning
	})
	return best, found
}

// lowestFitInRange returns the leftmost node with start in [lo, hi] and
// length >= size, pruning by the max-length augmentation.
func lowestFitInRange(n *anode, lo, hi, size uint32) *anode {
	if n == nil || n.maxLen < size {
		return nil
	}
	if n.blk.Start < lo {
		return lowestFitInRange(n.r, lo, hi, size)
	}
	if n.blk.Start > hi {
		return lowestFitInRange(n.l, lo, hi, size)
	}
	if f := lowestFitInRange(n.l, lo, hi, size); f != nil {
		return f
	}
	if n.blk.Len() >= size {
		return n
	}
	return lowestFitInRange(n.r, lo, hi, size)
}

// highestFitInRange is the mirror of lowestFitInRange.
func highestFitInRange(n *anode, lo, hi, size uint32) *anode {
	if n == nil || n.maxLen < size {
		return nil
	}
	if n.blk.Start < lo {
		return highestFitInRange(n.r, lo, hi, size)
	}
	if n.blk.Start > hi {
		return highestFitInRange(n.l, lo, hi, size)
	}
	if f := highestFitInRange(n.r, lo, hi, size); f != nil {
		return f
	}
	if n.blk.Len() >= size {
		return n
	}
	return highestFitInRange(n.l, lo, hi, size)
}

// NearestFit implements Space: of the rightmost fitting block at or
// below hint and the leftmost fitting block above it, the one whose
// start is closer (the lower one on a tie, matching the historical
// linear scan's first-wins behavior).
func (a *Alloc) NearestFit(hint uint32, size int) (ir.Range, bool) {
	sz := fitLen(size)
	left := highestFitInRange(a.root, 0, hint, sz)
	var right *anode
	if hint < ^uint32(0) {
		right = lowestFitInRange(a.root, hint+1, ^uint32(0), sz)
	}
	switch {
	case left == nil && right == nil:
		return ir.Range{}, false
	case left == nil:
		return right.blk, true
	case right == nil:
		return left.blk, true
	}
	if hint-left.blk.Start <= right.blk.Start-hint {
		return left.blk, true
	}
	return right.blk, true
}

// BlockStartingAt returns the free block that begins exactly at addr.
func (a *Alloc) BlockStartingAt(addr uint32) (ir.Range, bool) {
	for n := a.root; n != nil; {
		switch {
		case addr < n.blk.Start:
			n = n.l
		case addr > n.blk.Start:
			n = n.r
		default:
			return n.blk, true
		}
	}
	return ir.Range{}, false
}

// Contains reports whether r is entirely free.
func (a *Alloc) Contains(r ir.Range) bool {
	b := a.floor(r.Start)
	return b != nil && r.Start >= b.blk.Start && r.End <= b.blk.End
}

// FindWithin returns the lowest free range of exactly size bytes that
// lies wholly inside window, if any (same contract as the test-only
// reference FreeSpace: blocks are clipped to the window before the fit
// test).
func (a *Alloc) FindWithin(window ir.Range, size uint32) (ir.Range, bool) {
	if size == 0 || window.End <= window.Start {
		return ir.Range{}, false
	}
	// A block straddling the window start is clipped on both sides.
	if b := a.floor(window.Start); b != nil && b.blk.End > window.Start && b.blk.Start < window.Start {
		lo := window.Start
		hi := b.blk.End
		if hi > window.End {
			hi = window.End
		}
		if hi > lo && hi-lo >= size {
			return ir.Range{Start: lo, End: lo + size}, true
		}
	}
	// Blocks starting inside the window fit iff their own length and the
	// room left before window.End both cover size.
	if window.End < size {
		return ir.Range{}, false
	}
	if n := lowestFitInRange(a.root, window.Start, window.End-size, size); n != nil {
		return ir.Range{Start: n.blk.Start, End: n.blk.Start + size}, true
	}
	return ir.Range{}, false
}

// Carve removes r, which must lie entirely inside one free block.
// O(log n): the containing block is trimmed in place; only a carve from
// the middle inserts a node for the right remainder.
func (a *Alloc) Carve(r ir.Range) error {
	if r.Start >= r.End {
		return fmt.Errorf("core: carve of empty range %+v", r)
	}
	n := a.floor(r.Start)
	if n == nil || r.End > n.blk.End {
		return fmt.Errorf("core: carve %+v not in free space", r)
	}
	b := n.blk
	switch {
	case r == b:
		a.root = a.remove(a.root, b.Start)
	case r.Start == b.Start:
		a.reshape(a.root, b.Start, ir.Range{Start: r.End, End: b.End})
	case r.End == b.End:
		a.reshape(a.root, b.Start, ir.Range{Start: b.Start, End: r.Start})
	default:
		a.reshape(a.root, b.Start, ir.Range{Start: b.Start, End: r.Start})
		a.root = a.insert(a.root, ir.Range{Start: r.End, End: b.End})
	}
	return nil
}

// Release returns r to the free pool, merging with at most the two
// adjacent blocks found by tree search — no re-sort. Releasing bytes
// that are already free violates the allocator's invariant (a double
// free) and panics.
func (a *Alloc) Release(r ir.Range) {
	if r.Start >= r.End {
		return
	}
	var pred, succ *anode
	if p := a.floor(r.Start); p != nil {
		if p.blk.End > r.Start {
			panic(fmt.Sprintf("core: release %+v overlaps free block %+v", r, p.blk))
		}
		pred = p
	}
	// Leftmost node with start >= r.Start (the floor check above rules
	// out an exact-start collision); a start below r.End would overlap.
	for n := a.root; n != nil; {
		if n.blk.Start >= r.Start {
			if n.blk.Start < r.End {
				panic(fmt.Sprintf("core: release %+v overlaps free block %+v", r, n.blk))
			}
			succ = n
			n = n.l
		} else {
			n = n.r
		}
	}
	mergeL := pred != nil && pred.blk.End == r.Start
	mergeR := succ != nil && succ.blk.Start == r.End
	switch {
	case mergeL && mergeR:
		end := succ.blk.End
		start := pred.blk.Start
		a.root = a.remove(a.root, succ.blk.Start)
		a.reshape(a.root, start, ir.Range{Start: start, End: end})
	case mergeL:
		a.reshape(a.root, pred.blk.Start, ir.Range{Start: pred.blk.Start, End: r.End})
	case mergeR:
		a.reshape(a.root, succ.blk.Start, ir.Range{Start: r.Start, End: succ.blk.End})
	default:
		a.root = a.insert(a.root, r)
	}
}

// checkInvariants verifies the tree structure (ordering, disjointness,
// AVL balance, augmentation and byte accounting); tests and the fuzz
// target call it after every mutation.
func (a *Alloc) checkInvariants() error {
	var prev *ir.Range
	count, total := 0, 0
	var walk func(n *anode) error
	walk = func(n *anode) error {
		if n == nil {
			return nil
		}
		if err := walk(n.l); err != nil {
			return err
		}
		if n.blk.Start >= n.blk.End {
			return fmt.Errorf("empty block %+v", n.blk)
		}
		if prev != nil && prev.End >= n.blk.Start {
			return fmt.Errorf("blocks %+v and %+v not disjoint/merged", *prev, n.blk)
		}
		b := n.blk
		prev = &b
		count++
		total += int(n.blk.Len())
		if bf := nodeHeight(n.l) - nodeHeight(n.r); bf < -1 || bf > 1 {
			return fmt.Errorf("unbalanced at %+v (bf %d)", n.blk, bf)
		}
		wantH := nodeHeight(n.l)
		if hr := nodeHeight(n.r); hr > wantH {
			wantH = hr
		}
		if n.h != wantH+1 {
			return fmt.Errorf("bad height at %+v", n.blk)
		}
		wantM := n.blk.Len()
		if v := nodeMaxLen(n.l); v > wantM {
			wantM = v
		}
		if v := nodeMaxLen(n.r); v > wantM {
			wantM = v
		}
		if n.maxLen != wantM {
			return fmt.Errorf("bad maxLen at %+v: %d want %d", n.blk, n.maxLen, wantM)
		}
		return walk(n.r)
	}
	if err := walk(a.root); err != nil {
		return err
	}
	if count != a.count {
		return fmt.Errorf("count %d, tree has %d", a.count, count)
	}
	if total != a.total {
		return fmt.Errorf("total %d, tree sums %d", a.total, total)
	}
	return nil
}

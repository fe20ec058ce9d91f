// Legacy slice-scanning placers: the pre-allocator implementations of
// the internal/layout placers, preserved verbatim behind the new query
// interface. Each Choose call materializes a fresh copy of the block
// list (exactly what the old fs.Blocks() contract cost) and runs the
// historical linear scan over it, so these serve two purposes:
//
//   - the byte-identity oracle: a rewrite driven by a legacy placer must
//     produce the same binary as its query-based counterpart, proving
//     the allocator swap changed the complexity, not the layout;
//   - the old side of the old-vs-new placement benchmarks
//     (BenchmarkPlaceLargeSynth), which quantify what the indexed
//     allocator buys at libc scale.
//
// They are test-only and not wired to any Config layout kind.
package zipr

import (
	"math/rand"

	"zipr/internal/core"
	"zipr/internal/ir"
)

// snapshotBlocks reproduces the old per-decision fs.Blocks() copy.
func snapshotBlocks(space core.Space) []ir.Range {
	blocks := make([]ir.Range, 0, space.NumBlocks())
	space.Visit(func(b ir.Range) bool {
		blocks = append(blocks, b)
		return true
	})
	return blocks
}

// LegacyOptimized is the slice-scanning Optimized placer.
type LegacyOptimized struct{}

var _ core.Placer = LegacyOptimized{}

// Name implements core.Placer.
func (LegacyOptimized) Name() string { return "optimized-legacy" }

// InlinePins implements core.Placer.
func (LegacyOptimized) InlinePins() bool { return true }

// Choose is the historical linear scan: nearest start to the hint, or
// best fit without one, first block winning ties.
func (LegacyOptimized) Choose(space core.Space, size int, hint, origin uint32) (uint32, bool) {
	blocks := snapshotBlocks(space)
	best := -1
	var bestKey uint64
	for i, b := range blocks {
		if int(b.Len()) < size {
			continue
		}
		var key uint64
		if hint == 0 {
			key = uint64(b.Len()) // best fit
		} else {
			d := int64(b.Start) - int64(hint)
			if d < 0 {
				d = -d
			}
			key = uint64(d)
		}
		if best < 0 || key < bestKey {
			best, bestKey = i, key
		}
	}
	if best < 0 {
		return 0, false
	}
	return blocks[best].Start, true
}

// LegacyDiversity is the slice-scanning Diversity placer.
type LegacyDiversity struct {
	rng *rand.Rand
}

var _ core.Placer = (*LegacyDiversity)(nil)

// NewLegacyDiversity creates a legacy diversity placer with a
// deterministic seed.
func NewLegacyDiversity(seed int64) *LegacyDiversity {
	return &LegacyDiversity{rng: rand.New(rand.NewSource(seed))}
}

// Name implements core.Placer.
func (*LegacyDiversity) Name() string { return "diversity-legacy" }

// InlinePins implements core.Placer.
func (*LegacyDiversity) InlinePins() bool { return false }

// Choose is the historical scan: collect fitting blocks, then draw a
// random block and offset.
func (d *LegacyDiversity) Choose(space core.Space, size int, hint, origin uint32) (uint32, bool) {
	var fitting []ir.Range
	for _, b := range snapshotBlocks(space) {
		if int(b.Len()) >= size {
			fitting = append(fitting, b)
		}
	}
	if len(fitting) == 0 {
		return 0, false
	}
	b := fitting[d.rng.Intn(len(fitting))]
	slack := int(b.Len()) - size
	off := 0
	if slack > 0 {
		off = d.rng.Intn(slack + 1)
		if al := int(space.Align()); al > 1 {
			off -= off % al // keep fixed-width placements fetchable
		}
	}
	return b.Start + uint32(off), true
}

// LegacyProfileGuided is the slice-scanning ProfileGuided placer.
type LegacyProfileGuided struct {
	// Hot lists original-address ranges considered hot.
	Hot []ir.Range

	hotZoneEnd uint32
}

var _ core.Placer = (*LegacyProfileGuided)(nil)

// Name implements core.Placer.
func (*LegacyProfileGuided) Name() string { return "profile-guided-legacy" }

// InlinePins implements core.Placer.
func (*LegacyProfileGuided) InlinePins() bool { return false }

func (p *LegacyProfileGuided) isHot(hint, origin uint32) bool {
	if origin != 0 {
		for _, r := range p.Hot {
			if r.Contains(origin) {
				return true
			}
		}
		return false
	}
	return hint != 0 && hint <= p.hotZoneEnd
}

// Choose is the historical scan: hot requests walk the sorted list
// bottom-up, cold requests top-down.
func (p *LegacyProfileGuided) Choose(space core.Space, size int, hint, origin uint32) (uint32, bool) {
	blocks := snapshotBlocks(space)
	if len(blocks) == 0 {
		return 0, false
	}
	if p.isHot(hint, origin) {
		for _, b := range blocks { // blocks are address-sorted
			if int(b.Len()) >= size {
				end := b.Start + uint32(size)
				if end > p.hotZoneEnd {
					p.hotZoneEnd = end
				}
				return b.Start, true
			}
		}
		return 0, false
	}
	for i := len(blocks) - 1; i >= 0; i-- {
		b := blocks[i]
		if int(b.Len()) >= size {
			return b.End - uint32(size), true
		}
	}
	return 0, false
}

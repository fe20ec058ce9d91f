// Package layout provides the pluggable code-placement strategies of
// paper §III. Layout algorithms are plugins over the reassembler's
// Placer interface: Optimized packs dollops back at their pinned
// addresses and near their referents to minimize file-size and MaxRSS
// overhead; Diversity scatters dollops randomly across free space to
// maximize code-layout diversity at the cost of memory locality.
//
// Placers see free space through core.Space, the allocator's indexed
// query interface: each placement decision is answered by O(log n)
// lookups instead of a copy and linear scan of the whole block list,
// which is what lets placement scale to libc/libjvm-sized inputs. The
// pre-index slice-scanning implementations survive, test-only, in the
// root package's legacy_placer_test.go as the differential-testing and
// benchmarking reference.
package layout

import (
	"math/rand"

	"zipr/internal/core"
	"zipr/internal/ir"
)

// Optimized is the relaxation-style layout (the configuration fielded in
// CGC): dollops go back at their original pinned locations when the gap
// allows, and otherwise land as close to the referencing site as
// possible, preferring pages that already hold pinned references.
type Optimized struct{}

var _ core.Placer = Optimized{}

// Name implements core.Placer.
func (Optimized) Name() string { return "optimized" }

// InlinePins implements core.Placer: reserve pin gaps for in-place code.
func (Optimized) InlinePins() bool { return true }

// Choose picks the fitting block closest to the referencing site; with
// no hint it best-fits the smallest block to limit fragmentation. Both
// are single allocator queries (NearestFit is O(log n); the hintless
// BestFit path does not occur in the pipeline's hot loop).
func (Optimized) Choose(space core.Space, size int, hint, origin uint32) (uint32, bool) {
	var b ir.Range
	var ok bool
	if hint == 0 {
		b, ok = space.BestFit(size)
	} else {
		b, ok = space.NearestFit(hint, size)
	}
	if !ok {
		return 0, false
	}
	return b.Start, true
}

// Diversity scatters code randomly: every placement decision picks a
// random fitting block and a random offset inside it, so two rewrites
// with different seeds produce different layouts of the same program.
type Diversity struct {
	rng     *rand.Rand
	fitting []ir.Range // reused across Choose calls
}

var _ core.Placer = (*Diversity)(nil)

// NewDiversity creates a diversity placer with a deterministic seed.
func NewDiversity(seed int64) *Diversity {
	return &Diversity{rng: rand.New(rand.NewSource(seed))}
}

// Name implements core.Placer.
func (*Diversity) Name() string { return "diversity" }

// InlinePins implements core.Placer: never pin code in place — in-place
// code would defeat layout diversity.
func (*Diversity) InlinePins() bool { return false }

// Choose picks a random fitting block and a random offset within it.
// The fitting blocks are collected through the allocator's pruned
// iterator (O(k + log n) for k fitting blocks) into a buffer reused
// across calls; the visit order and random draws match the historical
// slice scan, so placements per seed are unchanged.
func (d *Diversity) Choose(space core.Space, size int, hint, origin uint32) (uint32, bool) {
	d.fitting = d.fitting[:0]
	space.VisitFits(size, func(b ir.Range) bool {
		d.fitting = append(d.fitting, b)
		return true
	})
	if len(d.fitting) == 0 {
		return 0, false
	}
	b := d.fitting[d.rng.Intn(len(d.fitting))]
	slack := int(b.Len()) - size
	off := 0
	if slack > 0 {
		// The draw happens unconditionally so the random sequence (and
		// with it every pinned variable-width layout) is unchanged by
		// the alignment rounding fixed-width ISAs need.
		off = d.rng.Intn(slack + 1)
		if al := int(space.Align()); al > 1 {
			off -= off % al
		}
	}
	return b.Start + uint32(off), true
}

// Package core implements the paper's primary contribution: reassembly
// of a transformed IR into an efficient rewritten binary without keeping
// a copy of the original code.
//
// The algorithm (paper §II-C, §III):
//
//  1. Plan a reference at every pinned address. Where the gap to the
//     next obstacle allows 5 bytes the reference is an unconstrained
//     long jump; gaps of 2-4 bytes get a constrained short jump that is
//     *chained* through a nearby 5-byte slot; adjacent pinned addresses
//     (gap < 2) are covered by a *sled* of 0x68 push opcodes whose
//     dispatch code recovers the entry point from the pushed words.
//  2. Optionally (optimized layout) reserve the whole gap after a pinned
//     address so the target dollop can be placed *at* its original
//     address, merging through consecutive pinned instructions — this is
//     how the rewriter approaches zero file-size and MaxRSS overhead.
//  3. Process a worklist of unresolved references: construct the dollop
//     (maximal fallthrough chain) containing each target, place it into
//     free space chosen by the pluggable layout algorithm, splitting
//     dollops across blocks (with continuation jumps) when no block
//     fits, and falling back to the appended overflow area.
//  4. Patch: re-encode every placed instruction with displacements and
//     materialized addresses computed from the final map M, write all
//     reference jumps, and fill deferred data blobs (e.g. CFI bitmaps)
//     now that the layout is known.
package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"zipr/internal/binfmt"
	"zipr/internal/fault"
	"zipr/internal/ir"
	"zipr/internal/isa"
	"zipr/internal/obs"
	"zipr/internal/zerr"
)

// Placer is the pluggable code-layout strategy (paper §III implements
// these as plugins on Zipr's API).
type Placer interface {
	// Name identifies the layout in stats and logs.
	Name() string
	// InlinePins reports whether gaps after pinned addresses should be
	// reserved so code can be placed back at its original location.
	InlinePins() bool
	// Choose picks a start address for size bytes out of the free
	// space, or reports that no block fits. Placers interrogate space
	// through its indexed queries (each O(log n)) instead of receiving a
	// copied block list — at libc/libjvm scale the per-decision copy and
	// linear scan of the old contract dominated reassembly. hint is the
	// address of the referencing site and origin the original address of
	// the code being placed (either may be 0 when unknown).
	Choose(space Space, size int, hint, origin uint32) (uint32, bool)
}

// Options configures reassembly.
type Options struct {
	Placer Placer
	// Trace receives the reassembly sub-phase spans (pin planting,
	// chaining, sled construction, dollop placement, patch/emit) and the
	// reassembler's counters and histograms; nil disables tracing.
	Trace *obs.Trace
	// Inject enables deterministic fault injection (allocator
	// exhaustion, unsatisfiable chains forcing sled escalation); nil
	// disables it.
	Inject *fault.Injector
}

// Stats reports what the reassembler did.
type Stats struct {
	Pinned       int // pinned addresses processed
	InlinePins   int // pins whose code was placed back in position
	Stubs5       int // unconstrained 5-byte references
	Stubs2       int // constrained 2-byte references (chained)
	Chains       int // chain slots allocated (including multi-hop)
	Sleds        int // sleds emitted
	SledEntries  int // pinned addresses covered by sleds
	Dollops      int // dollops placed
	Splits       int // dollop splits
	OverflowUsed int // bytes placed in the overflow area
	TextGrowth   int // final text size minus original text size
	FreeLeft     int // free bytes remaining inside the original range
	Veneers      int // range-extension islands emitted (fixed-width ISAs)
}

// Result is the reassembly output.
type Result struct {
	Binary *binfmt.Binary
	Stats  Stats
	Layout *ir.Layout
}

// jmpWrite is a pending jump to be encoded during the patch pass.
type jmpWrite struct {
	at     uint32
	size   int // 2 or 5 (ZVM-32), 4 (ZVM-64)
	target *ir.Instruction
	abs    uint32 // used when target is nil
}

// workItem is an unresolved reference (uDR in the paper).
type workItem struct {
	target *ir.Instruction
	hint   uint32
}

// inlineRegion is a reserved gap after a pinned address.
type inlineRegion struct {
	region ir.Range
	target *ir.Instruction
	done   bool
}

type reassembler struct {
	p      *ir.Program
	placer Placer
	tr     *obs.Trace
	inj    *fault.Injector
	text   ir.Range
	arch   isa.Arch
	ref    int // unconstrained reference size (arch.RefLen)

	// pins lists the pinned instructions by original address. Core never
	// pins or unpins, so planPins computes it once and emit reuses it.
	pins []*ir.Instruction

	image    []byte // rewritten text image, starting at text.Start
	imageEnd uint32
	fs       *Alloc

	// addr is the placement table M, indexed by instruction ID: the
	// placed address plus one, 0 while unplaced. IDs are dense
	// (ir.Program.MaxID), so a slice replaces a pointer-keyed map; it
	// grows only for nodes created during reassembly (the hlt buildChain
	// plants).
	addr []uint32
	// order lists placed instructions in placement order, and runs cuts
	// it into contiguous address ranges, so emit sorts the runs (a few
	// thousand) instead of every instruction.
	order []*ir.Instruction
	runs  []placeRun

	work     []workItem
	jmps     []jmpWrite
	inlines  map[uint32]*inlineRegion // keyed by region start (= pinned addr)
	raw      []rawWrite
	stats    Stats
	overflow uint32 // first overflow byte (== original text end)

	// veneers maps a destination address to the range-extension islands
	// already emitted for it, so in-reach islands are shared between
	// branch sites instead of re-allocated.
	veneers map[uint32][]uint32

	// chainSeen/chainEpoch implement buildChain's cycle detection with
	// one reusable ID-indexed slice instead of a fresh allocation per
	// dollop: an instruction is in the current chain iff its entry equals
	// the current epoch. chainBuf is the chain itself, reused likewise.
	chainSeen  []uint32
	chainEpoch uint32
	chainBuf   []*ir.Instruction
}

// placeRun is a contiguous address range [start, end) of placed
// instructions, order[lo:hi], laid back to back in placement order.
type placeRun struct {
	start, end uint32
	lo, hi     int
}

type rawWrite struct {
	at    uint32
	bytes []byte
}

// Reassemble converts the transformed IR into a rewritten binary.
func Reassemble(p *ir.Program, opts Options) (*Result, error) {
	if opts.Placer == nil {
		return nil, fmt.Errorf("core: no placer configured")
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	text := p.TextRange()
	placer := opts.Placer
	if opts.Trace != nil {
		placer = newTracedPlacer(placer, opts.Trace)
	}
	if opts.Inject.Armed(fault.AllocExhaust) {
		// Outermost wrapper: denied placements are visible only through
		// the injector's own fault counter, exactly as a genuinely full
		// allocator would be — downstream must take the split/overflow
		// path either way.
		placer = &faultPlacer{inner: placer, inj: opts.Inject}
	}
	arch := p.ISA()
	r := &reassembler{
		p:        p,
		placer:   placer,
		tr:       opts.Trace,
		inj:      opts.Inject,
		text:     text,
		arch:     arch,
		ref:      arch.RefLen(),
		image:    make([]byte, text.Len()),
		imageEnd: text.End,
		overflow: text.End,
		// Nearly every instruction ends up placed, so size the placement
		// tables for all of them up front instead of growing on the way.
		addr:      make([]uint32, p.MaxID()+1),
		order:     make([]*ir.Instruction, 0, len(p.Insts)),
		inlines:   make(map[uint32]*inlineRegion),
		chainSeen: make([]uint32, p.MaxID()+1),
		veneers:   make(map[uint32][]uint32),
	}
	r.fs = NewAlloc(text, p.Fixed)
	r.fs.SetAlign(arch.Align())
	if align := arch.Align(); align > 1 {
		// Fixed-width ISAs only ever carve aligned, size-multiple-of-
		// align ranges; trimming the initial free blocks to aligned
		// bounds makes that invariant hold for the allocator's whole
		// lifetime (slivers next to unaligned fixed-range edges are
		// unusable for code anyway). The overflow frontier gets the same
		// treatment so appended dollops and veneers start aligned.
		if err := r.alignFreeSpace(align); err != nil {
			return nil, err
		}
		if pad := (align - r.imageEnd%align) % align; pad != 0 {
			r.image = append(r.image, make([]byte, pad)...)
			r.imageEnd += pad
			r.overflow = r.imageEnd
		}
	}

	if err := r.planPins(); err != nil {
		return nil, err
	}
	sp := r.tr.Start("dollop-placement")
	err := r.processWork()
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = r.tr.Start("inline-fixups")
	err = r.finishInlines()
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = r.tr.Start("patch-emit")
	bin, layout, err := r.emit()
	sp.End()
	if err != nil {
		return nil, err
	}
	r.stats.TextGrowth = int(r.imageEnd - text.End)
	r.stats.OverflowUsed = int(r.imageEnd - r.overflow)
	r.stats.FreeLeft = r.fs.TotalFree()
	r.flushMetrics()
	return &Result{Binary: bin, Stats: r.stats, Layout: layout}, nil
}

// flushMetrics exports the reassembler's end state to the trace: every
// Stats field as a counter, the free-range fragmentation histogram, and
// free-block-count, fragmentation and image-size gauges — all read
// straight off the allocator, with no block-list copy.
func (r *reassembler) flushMetrics() {
	if !r.tr.Enabled() {
		return
	}
	s := r.stats
	for _, c := range []struct {
		name string
		v    int
	}{
		{"stats.pinned", s.Pinned},
		{"stats.inline-pins", s.InlinePins},
		{"stats.stubs5", s.Stubs5},
		{"stats.stubs2", s.Stubs2},
		{"stats.chains", s.Chains},
		{"stats.sleds", s.Sleds},
		{"stats.sled-entries", s.SledEntries},
		{"stats.dollops", s.Dollops},
		{"stats.splits", s.Splits},
		{"stats.overflow-bytes", s.OverflowUsed},
		{"stats.text-growth", s.TextGrowth},
		{"stats.free-left", s.FreeLeft},
		{"stats.veneers", s.Veneers},
	} {
		r.tr.Add(c.name, int64(c.v))
	}
	r.tr.Add("reassemble.free-ranges", int64(r.fs.NumBlocks()))
	r.fs.Visit(func(b ir.Range) bool {
		r.tr.Observe("reassemble.free-range-bytes", int64(b.Len()))
		return true
	})
	r.tr.SetGauge("reassemble.free-blocks", int64(r.fs.NumBlocks()))
	// Fragmentation gauge: the share of free bytes outside the largest
	// block (0 = one contiguous block, ->100 = shredded).
	if total := r.fs.TotalFree(); total > 0 {
		largest, _ := r.fs.Largest()
		r.tr.SetGauge("reassemble.fragmentation-pct",
			int64(100-int(largest.Len())*100/total))
	}
	r.tr.SetGauge("reassemble.image-bytes", int64(len(r.image)))
	r.tr.SetGauge("reassemble.placed-insts", int64(len(r.order)))
}

// tracedPlacer wraps a Placer with per-placer placement-decision
// counters (keys are precomputed so hot Choose calls do not build
// strings).
type tracedPlacer struct {
	inner             Placer
	tr                *obs.Trace
	callsKey, fitsKey string
	missKey, bytesKey string
}

func newTracedPlacer(inner Placer, tr *obs.Trace) *tracedPlacer {
	prefix := "placer." + inner.Name()
	return &tracedPlacer{
		inner:    inner,
		tr:       tr,
		callsKey: prefix + ".choose-calls",
		fitsKey:  prefix + ".choose-fits",
		missKey:  prefix + ".choose-misses",
		bytesKey: prefix + ".request-bytes",
	}
}

// Name implements Placer.
func (p *tracedPlacer) Name() string { return p.inner.Name() }

// InlinePins implements Placer.
func (p *tracedPlacer) InlinePins() bool { return p.inner.InlinePins() }

// Choose implements Placer, counting decisions.
func (p *tracedPlacer) Choose(space Space, size int, hint, origin uint32) (uint32, bool) {
	addr, ok := p.inner.Choose(space, size, hint, origin)
	p.tr.Add(p.callsKey, 1)
	if ok {
		p.tr.Add(p.fitsKey, 1)
	} else {
		p.tr.Add(p.missKey, 1)
	}
	p.tr.Observe(p.bytesKey, int64(size))
	return addr, ok
}

// faultPlacer wraps a Placer with deterministic allocation denial: the
// AllocExhaust fault makes Choose report "no block fits" for seeded
// placement decisions, forcing the caller onto its degradation path
// (dollop splits and the appended overflow area). The site key is the
// placement sequence number — reassembly runs on a single goroutine, so
// the sequence is deterministic.
type faultPlacer struct {
	inner Placer
	inj   *fault.Injector
	seq   uint32
}

// Name implements Placer.
func (p *faultPlacer) Name() string { return p.inner.Name() }

// InlinePins implements Placer.
func (p *faultPlacer) InlinePins() bool { return p.inner.InlinePins() }

// Choose implements Placer, denying seeded decisions.
func (p *faultPlacer) Choose(space Space, size int, hint, origin uint32) (uint32, bool) {
	p.seq++
	if p.inj.Fires(fault.AllocExhaust, p.seq) {
		return 0, false
	}
	return p.inner.Choose(space, size, hint, origin)
}

// inFixed reports whether addr is inside a fixed range.
func (r *reassembler) inFixed(addr uint32) bool { return ir.InRanges(r.p.Fixed, addr) }

// nextObstacle returns the first address after a that the pin plan must
// not touch: the next pinned address, the start of the next fixed range,
// or the end of text. fixed is sorted (ir.Program.Validate checks it),
// so the next fixed range is found by binary search.
func nextObstacle(a uint32, pins []*ir.Instruction, i int, fixed []ir.Range, textEnd uint32) uint32 {
	limit := textEnd
	if i+1 < len(pins) && pins[i+1].OrigAddr < limit {
		limit = pins[i+1].OrigAddr
	}
	if j := sort.Search(len(fixed), func(j int) bool { return fixed[j].Start >= a }); j < len(fixed) {
		limit = min(limit, fixed[j].Start)
	}
	return limit
}

// minInlineGap is the smallest gap worth reserving for in-place code.
const minInlineGap = 12

// planPins plans references, chains, sleds and inline regions for every
// pinned address. It works in two passes, as the paper's algorithm does:
// first every pinned site is classified and its bytes carved; only then
// are chains (which grab nearby free space) and sled dispatch code
// (which grabs arbitrary free space) allocated — otherwise a chain slot
// or dispatch blob could land on bytes a later pinned reference needs.
func (r *reassembler) planPins() error {
	r.pins = r.p.PinnedInsts()
	pins := r.pins
	fixed := r.p.Fixed
	r.stats.Pinned = len(pins)
	inline := r.placer.InlinePins()

	type pinKind uint8
	const (
		kindStub5 pinKind = iota + 1
		kindStub2
		kindSled
		kindInline
	)
	type pinPlan struct {
		kind   pinKind
		addr   uint32
		target *ir.Instruction
		sled   sledPlan
	}
	// One plan per pin (sleds absorb several pins, so this only
	// over-reserves), and in the common case one reference jump and one
	// work item per pin.
	plans := make([]pinPlan, 0, len(pins))
	r.jmps = make([]jmpWrite, 0, len(pins))
	r.work = make([]workItem, 0, len(pins)+1)

	// Pass 1: classify every pinned site and carve its header bytes.
	// Inline pins reserve only one reference here — enough for a fallback
	// jump — and grow into the remaining contiguous free space in
	// pass 3, after chains and dispatch blobs have taken what they need.
	sp := r.tr.Start("pin-planting")
	ref := uint32(r.ref)
	chainRef := uint32(r.arch.ChainRefLen())
	align := r.arch.Align()
	for i := 0; i < len(pins); i++ {
		a := pins[i].OrigAddr
		if !r.text.Contains(a) {
			r.p.Warnf("core: pinned address %#x outside text; skipping", a)
			continue
		}
		if r.inFixed(a) {
			// Fixed bytes keep their original content; indirect jumps
			// there execute the original instruction in place.
			r.p.Warnf("core: pinned address %#x inside fixed bytes; no reference planted", a)
			continue
		}
		if align > 1 && a%align != 0 {
			// A misaligned pin can never be fetched on a fixed-width ISA:
			// execution there faults on alignment in the original binary
			// exactly as it does in the rewritten one, so no reference is
			// needed (and none could be encoded at that address).
			r.p.Warnf("core: pinned address %#x misaligned for %s; skipping", a, r.arch.Name())
			continue
		}
		gap := nextObstacle(a, pins, i, fixed, r.text.End) - a
		switch {
		case gap >= minInlineGap && inline:
			if err := r.fs.Carve(ir.Range{Start: a, End: a + ref}); err != nil {
				return fmt.Errorf("core: pin %#x inline header: %w", a, err)
			}
			plans = append(plans, pinPlan{kind: kindInline, addr: a, target: pins[i]})
		case gap >= ref:
			if err := r.fs.Carve(ir.Range{Start: a, End: a + ref}); err != nil {
				return fmt.Errorf("core: pin %#x reference: %w", a, err)
			}
			plans = append(plans, pinPlan{kind: kindStub5, addr: a, target: pins[i]})
			r.stats.Stubs5++
		case chainRef > 0 && gap >= chainRef && !r.escalatePin(a):
			if err := r.fs.Carve(ir.Range{Start: a, End: a + chainRef}); err != nil {
				return fmt.Errorf("core: pin %#x constrained reference: %w", a, err)
			}
			plans = append(plans, pinPlan{kind: kindStub2, addr: a, target: pins[i]})
			r.stats.Stubs2++
		default:
			if !r.arch.SledsSupported() {
				// Unreachable on zvm64 in practice: aligned pins are at
				// least one instruction width apart, so a full reference
				// always fits. Fail closed rather than emit garbage.
				return zerr.Tag(zerr.ErrExhausted, fmt.Errorf(
					"core: pin at %#x has gap %d and %s supports no sleds", a, gap, r.arch.Name()))
			}
			plan, last, err := r.carveSled(pins, i)
			if err != nil {
				return err
			}
			plans = append(plans, pinPlan{kind: kindSled, addr: plan.start, sled: plan})
			i = last
		}
	}

	sp.End()

	// Pass 2: chains and sled dispatch allocate from what is left. The
	// per-call cost is too fine-grained for individual spans, so the
	// loop accumulates wall time per kind and records two aggregate
	// sub-phase spans afterwards.
	traced := r.tr.Enabled()
	var chainWall, sledWall time.Duration
	var chainN, sledN int
	for _, pl := range plans {
		switch pl.kind {
		case kindStub5:
			r.jmps = append(r.jmps, jmpWrite{at: pl.addr, size: r.ref, target: pl.target})
			r.work = append(r.work, workItem{target: pl.target, hint: pl.addr})
		case kindStub2:
			var t0 time.Time
			if traced {
				t0 = time.Now()
			}
			if err := r.chain(pl.addr, pl.target, 0); err != nil {
				return err
			}
			if traced {
				chainWall += time.Since(t0)
				chainN++
			}
		case kindSled:
			var t0 time.Time
			if traced {
				t0 = time.Now()
			}
			if err := r.emitSled(pl.sled); err != nil {
				return err
			}
			if traced {
				sledWall += time.Since(t0)
				sledN++
			}
		}
	}
	r.tr.Record("chaining", chainWall, chainN)
	r.tr.Record("sled-construction", sledWall, sledN)

	// Pass 3: inline regions grow from their reference-sized headers into the
	// contiguous free space that remains after them (bounded implicitly
	// by the next carved pin site, chain slot, or fixed range).
	sp = r.tr.Start("inline-reserve")
	defer sp.End()
	for _, pl := range plans {
		if pl.kind != kindInline {
			continue
		}
		region := ir.Range{Start: pl.addr, End: pl.addr + uint32(r.ref)}
		if blk, ok := r.fs.BlockStartingAt(pl.addr + uint32(r.ref)); ok {
			if err := r.fs.Carve(blk); err != nil {
				return fmt.Errorf("core: pin %#x inline extension: %w", pl.addr, err)
			}
			region.End = blk.End
		}
		r.inlines[pl.addr] = &inlineRegion{region: region, target: pl.target}
	}
	return nil
}

// escalatePin reports whether the ChainUnsat fault forces the pin at a
// to skip constrained chaining and fall through to sled handling, as if
// no chain could be satisfied near it. The decision is keyed on the pin
// address, so it agrees with the slot denial in chain() (both hash the
// same site). The lazy evaluation in planPins' switch means only pins
// that would actually chain (2 <= gap < 5) ever consult the injector.
func (r *reassembler) escalatePin(a uint32) bool {
	if !r.inj.Fires(fault.ChainUnsat, a) {
		return false
	}
	r.tr.Add("fault.sled-escalations", 1)
	return true
}

// chain plants a 2-byte jump at `at` leading (possibly through further
// 2-byte hops) to a 5-byte slot that can address the whole space
// (paper §II-C3, span-dependent jump chaining).
func (r *reassembler) chain(at uint32, target *ir.Instruction, depth int) error {
	if depth > 8 {
		return zerr.Tag(zerr.ErrExhausted, fmt.Errorf("core: chain depth exceeded at %#x", at))
	}
	// rel8 range from the end of the 2-byte jump.
	base := at + 2
	window := ir.Range{Start: base - 128, End: base + 127}
	if window.Start > base { // underflow
		window.Start = r.text.Start
	}
	// The ChainUnsat fault denies the direct 5-byte slot at seeded sites,
	// forcing the reference through extra 2-byte hops — a deterministic
	// stand-in for free space too fragmented to hold an unconstrained
	// jump nearby.
	if slot, ok := r.fs.FindWithin(window, 5); ok && !r.inj.Fires(fault.ChainUnsat, at) {
		if err := r.fs.Carve(slot); err != nil {
			return err
		}
		r.jmps = append(r.jmps,
			jmpWrite{at: at, size: 2, target: nil, abs: slot.Start},
			jmpWrite{at: slot.Start, size: 5, target: target})
		r.work = append(r.work, workItem{target: target, hint: slot.Start})
		r.stats.Chains++
		return nil
	}
	// No 5-byte slot in range: hop through another 2-byte jump.
	hop, ok := r.fs.FindWithin(window, 2)
	if !ok {
		return zerr.Tag(zerr.ErrExhausted, fmt.Errorf("core: no chain space near constrained reference at %#x", at))
	}
	if err := r.fs.Carve(hop); err != nil {
		return err
	}
	r.jmps = append(r.jmps, jmpWrite{at: at, size: 2, target: nil, abs: hop.Start})
	r.stats.Chains++
	return r.chain(hop.Start, target, depth+1)
}

// carveSled groups the dense run of pinned addresses starting at index i
// into one sled, carves its footprint, and returns the plan plus the
// index of the last pin absorbed. Dispatch code is emitted later by
// emitSled, once every pinned site has reserved its bytes.
func (r *reassembler) carveSled(pins []*ir.Instruction, i int) (sledPlan, int, error) {
	start := pins[i].OrigAddr
	j := i
	for {
		spanEnd := pins[j].OrigAddr + 1 // one past the last 0x68 entry
		tailEnd := spanEnd + sledTailSize
		// Absorb any pinned address that would collide with the tail.
		if j+1 < len(pins) && pins[j+1].OrigAddr < tailEnd && r.text.Contains(pins[j+1].OrigAddr) {
			j++
			continue
		}
		whole := ir.Range{Start: start, End: tailEnd}
		if tailEnd > r.text.End {
			return sledPlan{}, i, zerr.Tag(zerr.ErrExhausted, fmt.Errorf("core: sled at %#x overruns text segment", start))
		}
		for _, f := range r.p.Fixed {
			if f.Overlaps(whole) {
				return sledPlan{}, i, fmt.Errorf("core: sled at %#x collides with fixed bytes at %#x", start, f.Start)
			}
		}
		break
	}
	spanEnd := pins[j].OrigAddr + 1
	span := int(spanEnd - start)
	plan := sledPlan{start: start, span: span}
	for k := i; k <= j; k++ {
		off := int(pins[k].OrigAddr - start)
		plan.entries = append(plan.entries, sledEntry{
			offset: off,
			target: pins[k],
			words:  simulateSledEntry(span, off),
		})
	}
	whole := ir.Range{Start: start, End: start + uint32(plan.size())}
	if err := r.fs.Carve(whole); err != nil {
		return sledPlan{}, i, fmt.Errorf("core: sled at %#x: %w", start, err)
	}
	return plan, j, nil
}

// emitSled writes a planned sled's bytes and places its dispatch code.
func (r *reassembler) emitSled(plan sledPlan) error {
	start := plan.start
	spanEnd := start + uint32(plan.span)
	r.raw = append(r.raw, rawWrite{at: start, bytes: sledBytes(plan.span)})

	dispatch, refs, err := genDispatch(r.arch, plan.entries)
	if err != nil {
		return err
	}
	dispatchAddr, err := r.placeRaw(dispatch, start)
	if err != nil {
		return err
	}
	// Tail jump from the sled's nops into dispatch.
	r.jmps = append(r.jmps, jmpWrite{at: spanEnd + 4, size: 5, abs: dispatchAddr})
	for _, ref := range refs {
		r.jmps = append(r.jmps, jmpWrite{at: dispatchAddr + uint32(ref.off), size: 5, target: ref.target})
		r.work = append(r.work, workItem{target: ref.target, hint: dispatchAddr})
	}
	r.stats.Sleds++
	r.stats.SledEntries += len(plan.entries)
	return nil
}

// placeRaw places an opaque code blob (sled dispatch) into free space or
// the overflow area and returns its address.
func (r *reassembler) placeRaw(code []byte, hint uint32) (uint32, error) {
	if addr, ok := r.placer.Choose(r.fs, len(code), hint, 0); ok {
		if err := r.fs.Carve(ir.Range{Start: addr, End: addr + uint32(len(code))}); err != nil {
			return 0, err
		}
		r.raw = append(r.raw, rawWrite{at: addr, bytes: code})
		return addr, nil
	}
	addr := r.allocOverflow(len(code))
	r.raw = append(r.raw, rawWrite{at: addr, bytes: code})
	return addr, nil
}

// allocOverflow extends the text image past the original end.
func (r *reassembler) allocOverflow(n int) uint32 {
	r.tr.Add("reassemble.overflow-allocs", 1)
	addr := r.imageEnd
	r.image = append(r.image, make([]byte, n)...)
	r.imageEnd += uint32(n)
	return addr
}

// alignFreeSpace trims every initial free block to align-multiple
// bounds by carving the unusable slivers off permanently.
func (r *reassembler) alignFreeSpace(align uint32) error {
	var blocks []ir.Range
	r.fs.Visit(func(b ir.Range) bool { blocks = append(blocks, b); return true })
	for _, b := range blocks {
		lo := (b.Start + align - 1) &^ (align - 1)
		hi := b.End &^ (align - 1)
		if hi <= lo {
			if err := r.fs.Carve(b); err != nil {
				return fmt.Errorf("core: align trim %+v: %w", b, err)
			}
			continue
		}
		if lo > b.Start {
			if err := r.fs.Carve(ir.Range{Start: b.Start, End: lo}); err != nil {
				return fmt.Errorf("core: align trim %+v: %w", b, err)
			}
		}
		if hi < b.End {
			if err := r.fs.Carve(ir.Range{Start: hi, End: b.End}); err != nil {
				return fmt.Errorf("core: align trim %+v: %w", b, err)
			}
		}
	}
	return nil
}

// veneerFor returns the address of a range-extension island forwarding
// to dest that is reachable from the branch ending at site+siteLen,
// emitting one if no existing island for dest is in reach. Islands are
// allocated during the patch pass — every branch site and destination
// address is final by then — first from free space inside the branch's
// reach window, then from the overflow frontier when that frontier is
// itself within reach; when neither works the rewrite fails closed
// with a typed exhaustion error.
func (r *reassembler) veneerFor(dest, site uint32, siteLen int) (uint32, error) {
	next := int64(site) + int64(siteLen)
	for _, v := range r.veneers[dest] {
		if r.arch.BranchDispOK(int64(v) - next) {
			r.tr.Add("reassemble.veneer-reuse", 1)
			return v, nil
		}
	}
	vlen := r.arch.VeneerLen()
	reach := int64(r.arch.BranchReach())
	lo, hi := next-reach, next+reach-int64(r.arch.Align())+int64(vlen)
	if lo < int64(r.text.Start) {
		lo = int64(r.text.Start)
	}
	if al := int64(r.arch.Align()); al > 1 && lo%al != 0 {
		// Keep the window start aligned: FindWithin clips a straddling
		// free block at the window edge, and islands must start aligned.
		lo += al - lo%al
	}
	if hi > int64(r.text.End) {
		hi = int64(r.text.End)
	}
	var addr uint32
	if lo < hi {
		win := ir.Range{Start: uint32(lo), End: uint32(hi)}
		if blk, ok := r.fs.FindWithin(win, uint32(vlen)); ok {
			if err := r.fs.Carve(blk); err != nil {
				return 0, err
			}
			addr = blk.Start
		}
	}
	if addr == 0 {
		if !r.arch.BranchDispOK(int64(r.imageEnd) - next) {
			return 0, zerr.Tag(zerr.ErrExhausted,
				fmt.Errorf("core: no veneer space within reach of branch at %#x to %#x", site, dest))
		}
		addr = r.allocOverflow(vlen)
	}
	copy(r.image[addr-r.text.Start:], r.arch.VeneerBytes(dest))
	r.veneers[dest] = append(r.veneers[dest], addr)
	r.stats.Veneers++
	r.tr.Add("reassemble.veneer-emits", 1)
	return addr, nil
}

// processWork drains the unresolved-reference worklist, placing the
// dollop for each not-yet-placed target.
func (r *reassembler) processWork() error {
	// Seed with the entry so executables always place their entry chain,
	// preferring its inline region when one exists.
	if r.p.Entry != nil {
		r.work = append(r.work, workItem{target: r.p.Entry, hint: r.p.Entry.OrigAddr})
	}
	// Inline regions are processed in address order for determinism and
	// so that merge-through-next-pin sees later regions still free.
	inlineAddrs := make([]uint32, 0, len(r.inlines))
	for a := range r.inlines {
		inlineAddrs = append(inlineAddrs, a)
	}
	sort.Slice(inlineAddrs, func(i, j int) bool { return inlineAddrs[i] < inlineAddrs[j] })
	for _, a := range inlineAddrs {
		reg := r.inlines[a]
		if err := r.placeInline(reg); err != nil {
			return err
		}
	}
	var rounds, hits int
	for len(r.work) > 0 {
		item := r.work[len(r.work)-1]
		r.work = r.work[:len(r.work)-1]
		rounds++
		if r.isPlaced(item.target) {
			// The dollop containing this reference target is already
			// placed (placement cache hit): the round resolves for free.
			hits++
			continue
		}
		if err := r.placeDollop(item.target, item.hint); err != nil {
			return err
		}
	}
	if r.tr.Enabled() {
		r.tr.Add("reassemble.worklist.rounds", int64(rounds))
		r.tr.Add("reassemble.worklist.cache-hits", int64(hits))
		r.tr.Add("reassemble.worklist.cache-misses", int64(rounds-hits))
	}
	return nil
}

// finishInlines writes plain references for inline regions whose target
// ended up placed elsewhere (e.g. swallowed by an earlier dollop).
func (r *reassembler) finishInlines() error {
	addrs := make([]uint32, 0, len(r.inlines))
	for a := range r.inlines {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		reg := r.inlines[a]
		if reg.done {
			continue
		}
		addr, placed := r.addrOf(reg.target)
		if placed && addr == reg.region.Start {
			reg.done = true
			continue
		}
		if !placed {
			return fmt.Errorf("core: inline pin target at %#x never placed", a)
		}
		// Fall back to an unconstrained reference; release the rest.
		r.jmps = append(r.jmps, jmpWrite{at: reg.region.Start, size: r.ref, target: reg.target})
		r.fs.Release(ir.Range{Start: reg.region.Start + uint32(r.ref), End: reg.region.End})
		r.stats.Stubs5++
		reg.done = true
	}
	return nil
}

// buildChain collects the maximal fallthrough chain starting at t that
// has not been placed yet. It returns the chain and the continuation
// instruction (nil when the chain ends in a terminator). The chain
// lives in a buffer the next call reuses, so callers must be done with
// it before building another.
func (r *reassembler) buildChain(t *ir.Instruction) ([]*ir.Instruction, *ir.Instruction) {
	insts := r.chainBuf[:0]
	r.chainEpoch++
	cur := t
	for cur != nil {
		if r.isPlaced(cur) || r.chainSeen[cur.ID] == r.chainEpoch {
			break
		}
		insts = append(insts, cur)
		r.chainSeen[cur.ID] = r.chainEpoch
		if !cur.Inst.HasFallthrough() {
			cur = nil
			break
		}
		next := cur.Fallthrough
		if next == nil {
			// Falls through with no successor: IR inconsistency; trap.
			r.p.Warnf("core: instruction %s falls through to nothing; planting hlt", cur)
			next = r.p.NewInst(isa.Inst{Op: isa.OpHlt})
			r.grow(next.ID)
			cur.Fallthrough = next
		}
		cur = next
	}
	r.chainBuf = insts
	return insts, cur
}

// grow extends the ID-indexed tables to cover id, for a node created
// after reassembly sized them.
func (r *reassembler) grow(id int64) {
	if n := int(id) + 1; n > len(r.addr) {
		r.addr = append(r.addr, make([]uint32, n-len(r.addr))...)
		r.chainSeen = append(r.chainSeen, make([]uint32, n-len(r.chainSeen))...)
	}
}

// addrOf returns n's placed address.
func (r *reassembler) addrOf(n *ir.Instruction) (uint32, bool) { return lookupAddr(r.addr, n) }

// isPlaced reports whether n has an address yet.
func (r *reassembler) isPlaced(n *ir.Instruction) bool {
	_, ok := r.addrOf(n)
	return ok
}

// lookupAddr reads n's address out of an ID-indexed placement table.
func lookupAddr(tab []uint32, n *ir.Instruction) (uint32, bool) {
	if id := uint64(n.ID); id < uint64(len(tab)) && tab[id] != 0 {
		return tab[id] - 1, true
	}
	return 0, false
}

// place assigns n the address at and returns the address after it. An
// instruction that starts where the previous one ended extends the
// current run; any other starts a new run.
func (r *reassembler) place(n *ir.Instruction, at uint32) uint32 {
	r.addr[n.ID] = at + 1
	end := at + uint32(r.instLen(n))
	if k := len(r.runs) - 1; k >= 0 && r.runs[k].end == at {
		r.runs[k].end = end
		r.runs[k].hi++
	} else {
		r.runs = append(r.runs, placeRun{start: at, end: end, lo: len(r.order), hi: len(r.order) + 1})
	}
	r.order = append(r.order, n)
	return end
}

// instLen returns the emitted length of an IR instruction under the
// configured ISA. Lea with a logical target is materialized as movi
// (the same length under both ISAs: 6/6 on zvm32, 8/8 on zvm64).
func (r *reassembler) instLen(n *ir.Instruction) int { return r.arch.InstLen(n.Inst) }

// layChunk assigns addresses to insts starting at addr, records operand
// placement requests, and (when cont is non-nil) a continuation jump
// immediately after. It returns the first unused address.
func (r *reassembler) layChunk(insts []*ir.Instruction, addr uint32, cont *ir.Instruction) uint32 {
	for _, n := range insts {
		addr = r.place(n, addr)
		if n.Target != nil && !r.isPlaced(n.Target) {
			r.work = append(r.work, workItem{target: n.Target, hint: addr})
		}
	}
	if cont != nil {
		r.jmps = append(r.jmps, jmpWrite{at: addr, size: r.ref, target: cont})
		if !r.isPlaced(cont) {
			r.work = append(r.work, workItem{target: cont, hint: addr})
		}
		addr += uint32(r.ref)
	}
	return addr
}

// chunkFit returns how many instructions of insts fit in space bytes,
// accounting for a reference-sized continuation jump unless the chain
// completes with its terminator.
func (r *reassembler) chunkFit(insts []*ir.Instruction, space uint32, chainEndsClean bool) (count int, used uint32) {
	var sum uint32
	for i, n := range insts {
		l := uint32(r.instLen(n))
		isLast := i == len(insts)-1
		need := sum + l
		if !(isLast && chainEndsClean) {
			need += uint32(r.ref) // room for a continuation jump after this one
		}
		if need > space {
			break
		}
		sum += l
		count = i + 1
	}
	used = sum
	return count, used
}

// placeDollop constructs and places the dollop containing t.
func (r *reassembler) placeDollop(t *ir.Instruction, hint uint32) error {
	insts, cont := r.buildChain(t)
	if len(insts) == 0 {
		return nil // target already placed
	}
	r.stats.Dollops++
	idx := 0
	for idx < len(insts) {
		rest := insts[idx:]
		endsClean := cont == nil
		var want uint32
		for _, n := range rest {
			want += uint32(r.instLen(n))
		}
		if !endsClean {
			want += uint32(r.ref)
		}
		if addr, ok := r.placer.Choose(r.fs, int(want), hint, rest[0].OrigAddr); ok {
			if err := r.fs.Carve(ir.Range{Start: addr, End: addr + want}); err != nil {
				return err
			}
			var tail *ir.Instruction
			if !endsClean {
				tail = cont
			}
			r.layChunk(rest, addr, tail)
			return nil
		}
		// No block fits the rest: split into the largest block when that
		// is worthwhile, otherwise finish in the overflow area. Shredding
		// a large dollop across many tiny fragments costs a 5-byte jump
		// and a taken branch per fragment, so splitting is only used when
		// the fragment holds a meaningful share of the dollop — this is
		// the policy whose interaction with heavily pinned binaries the
		// paper's Figure-6 outlier discussion describes.
		blk, found := r.fs.Largest()
		minNeed := uint32(r.instLen(rest[0])) + uint32(r.ref)
		if len(rest) == 1 && endsClean {
			minNeed = uint32(r.instLen(rest[0]))
		}
		if found && blk.Len() < 256 && uint64(blk.Len())*4 < uint64(want) {
			found = false // fragment too small to be worth a split
		}
		if !found || blk.Len() < minNeed {
			addr := r.allocOverflow(int(want))
			var tail *ir.Instruction
			if !endsClean {
				tail = cont
			}
			r.layChunk(rest, addr, tail)
			return nil
		}
		count, used := r.chunkFit(rest, blk.Len(), endsClean)
		if count == 0 {
			// Defensive: cannot happen given the minNeed check above.
			return fmt.Errorf("core: split failed for dollop at hint %#x", hint)
		}
		take := rest[:count]
		size := used
		var tail *ir.Instruction
		if count < len(rest) {
			tail = rest[count]
			size += uint32(r.ref)
		} else if !endsClean {
			tail = cont
			size += uint32(r.ref)
		}
		if err := r.fs.Carve(ir.Range{Start: blk.Start, End: blk.Start + size}); err != nil {
			return err
		}
		end := r.layChunk(take, blk.Start, nil)
		if tail != nil {
			r.jmps = append(r.jmps, jmpWrite{at: end, size: r.ref, target: tail})
			if !r.isPlaced(tail) {
				r.work = append(r.work, workItem{target: tail, hint: end})
			}
		}
		if count < len(rest) {
			r.stats.Splits++
		}
		idx += count
		hint = end
		if count == len(rest) {
			return nil
		}
	}
	return nil
}

// placeInline lays the dollop for an inline pin directly at its original
// address, merging through directly following inline regions whenever
// the fallthrough chain reaches them exactly (this is what lets a Null
// transform put almost every byte back where it came from).
func (r *reassembler) placeInline(reg *inlineRegion) error {
	if r.isPlaced(reg.target) {
		return nil // finishInlines will plant a reference
	}
	insts, cont := r.buildChain(reg.target)
	if len(insts) == 0 {
		return nil
	}
	r.stats.Dollops++
	r.stats.InlinePins++
	reg.done = true

	addr := reg.region.Start
	capEnd := reg.region.End

	// seamTarget returns the region pending at capEnd, if any: reaching
	// capEnd exactly with that region's target next means execution can
	// fall through the boundary with no jump at all, because that
	// instruction will be (or already is referenced) at capEnd.
	pendingAt := func(a uint32) *inlineRegion {
		if next, ok := r.inlines[a]; ok && !next.done {
			return next
		}
		return nil
	}
	lay := func(n *ir.Instruction) {
		addr = r.place(n, addr)
		if n.Target != nil && !r.isPlaced(n.Target) {
			r.work = append(r.work, workItem{target: n.Target, hint: addr})
		}
	}

	idx := 0
	contHandled := false
	for idx < len(insts) {
		// Merge directly adjacent inline regions whose target is the
		// instruction we are about to lay.
		if next := pendingAt(capEnd); next != nil && addr == capEnd && next.target == insts[idx] {
			capEnd = next.region.End
			next.done = true
			r.stats.InlinePins++
		}
		n := insts[idx]
		l := uint32(r.instLen(n))
		isLast := idx == len(insts)-1
		endsClean := isLast && cont == nil
		need := addr + l
		if !endsClean {
			need += uint32(r.ref) // room for a continuation jump after this one
		}
		if need <= capEnd {
			lay(n)
			idx++
			continue
		}
		// The +5 reserve is unnecessary when the instruction ends
		// exactly at a boundary whose pending region holds the next
		// thing execution needs: the fallthrough crosses the seam.
		if addr+l == capEnd {
			var needNext *ir.Instruction
			if !isLast {
				needNext = insts[idx+1]
			} else {
				needNext = cont
			}
			if next := pendingAt(capEnd); next != nil && needNext != nil && next.target == needNext {
				lay(n)
				idx++
				if isLast {
					contHandled = true
				}
				continue
			}
			// Seam into an already-placed instruction sitting exactly at
			// capEnd (an earlier inline chain): also no jump needed.
			if needNext != nil {
				if a, placed := r.addrOf(needNext); placed && a == capEnd {
					lay(n)
					idx++
					if isLast {
						contHandled = true
					}
					continue
				}
			}
		}
		break // region full
	}
	switch {
	case idx == len(insts) && (cont == nil || contHandled):
		// Whole chain laid; execution ends or crosses a seam.
	case idx == len(insts):
		r.jmps = append(r.jmps, jmpWrite{at: addr, size: r.ref, target: cont})
		if !r.isPlaced(cont) {
			r.work = append(r.work, workItem{target: cont, hint: addr})
		}
		addr += uint32(r.ref)
	case idx == 0:
		// Region cannot hold even the first instruction plus the
		// continuation jump: degrade to a plain reference.
		r.jmps = append(r.jmps, jmpWrite{at: addr, size: r.ref, target: reg.target})
		r.work = append(r.work, workItem{target: reg.target, hint: addr})
		r.stats.Stubs5++
		r.stats.InlinePins--
		r.fs.Release(ir.Range{Start: addr + uint32(r.ref), End: capEnd})
		return nil
	default:
		next := insts[idx]
		r.jmps = append(r.jmps, jmpWrite{at: addr, size: r.ref, target: next})
		r.work = append(r.work, workItem{target: next, hint: addr})
		addr += uint32(r.ref)
		r.stats.Splits++
	}
	if addr < capEnd {
		r.fs.Release(ir.Range{Start: addr, End: capEnd})
	}
	return nil
}

// emit performs the patch pass and builds the output binary.
func (r *reassembler) emit() (*binfmt.Binary, *ir.Layout, error) {
	// Fixed ranges: copy original bytes.
	orig := r.p.Bin.Text()
	for _, f := range r.p.Fixed {
		copy(r.image[f.Start-r.text.Start:f.End-r.text.Start], orig.Data[f.Start-orig.VAddr:f.End-orig.VAddr])
	}
	// Raw blobs (sled bodies, dispatch code).
	for _, w := range r.raw {
		copy(r.image[w.at-r.text.Start:], w.bytes)
	}
	// Instructions, in (address, ID) order. Writes are disjoint, so order
	// only matters on fixed-width ISAs, where encoding an out-of-reach
	// branch allocates a veneer island in emit order. Runs are disjoint
	// address ranges with strictly ascending addresses inside, so sorting
	// the runs by start orders every instruction.
	slices.SortFunc(r.runs, func(a, b placeRun) int {
		if c := cmp.Compare(a.start, b.start); c != 0 {
			return c
		}
		return cmp.Compare(r.order[a.lo].ID, r.order[b.lo].ID)
	})
	for i, run := range r.runs {
		if i > 0 && run.start < r.runs[i-1].end {
			return nil, nil, fmt.Errorf("core: placed code overlaps at %#x", run.start)
		}
		at := run.start
		for _, n := range r.order[run.lo:run.hi] {
			in, err := r.patch(n, at)
			if err != nil {
				return nil, nil, err
			}
			if err := r.encodeInto(at, in); err != nil {
				return nil, nil, fmt.Errorf("core: encode %s: %w", n, err)
			}
			at += uint32(r.instLen(n))
		}
	}
	// Reference jumps.
	for _, j := range r.jmps {
		dest := j.abs
		if j.target != nil {
			d, ok := r.addrOf(j.target)
			if !ok {
				return nil, nil, fmt.Errorf("core: reference at %#x targets unplaced instruction %s", j.at, j.target)
			}
			dest = d
		}
		var in isa.Inst
		switch {
		case j.size == 2:
			disp := int64(dest) - int64(j.at) - 2
			if disp < -128 || disp > 127 {
				return nil, nil, fmt.Errorf("core: constrained reference at %#x cannot reach %#x", j.at, dest)
			}
			in = isa.Inst{Op: isa.OpJmp8, Imm: int32(disp)}
		case j.size == r.ref:
			disp := int64(dest) - int64(j.at) - int64(r.ref)
			if r.arch.BranchReach() != 0 && !r.arch.BranchDispOK(disp) {
				v, err := r.veneerFor(dest, j.at, r.ref)
				if err != nil {
					return nil, nil, err
				}
				disp = int64(v) - int64(j.at) - int64(r.ref)
			}
			in = isa.Inst{Op: isa.OpJmp32, Imm: int32(disp)}
		default:
			return nil, nil, fmt.Errorf("core: bad reference size %d", j.size)
		}
		if err := r.encodeInto(j.at, in); err != nil {
			return nil, nil, fmt.Errorf("core: reference at %#x: %w", j.at, err)
		}
	}

	tab := r.addr
	layout := &ir.Layout{
		AddrOf:   func(n *ir.Instruction) (uint32, bool) { return lookupAddr(tab, n) },
		TextBase: r.text.Start,
		TextEnd:  r.imageEnd,
	}
	for _, n := range r.pins {
		layout.PinnedAddrs = append(layout.PinnedAddrs, n.OrigAddr)
	}

	// Deferred data.
	dataExtra := append([]byte(nil), r.p.DataExtra...)
	var dataExtraBase uint32
	if d := r.p.Bin.DataSeg(); d != nil {
		dataExtraBase = d.End()
	} else {
		dataExtraBase = (r.text.End + 0xFFF) &^ 0xFFF
	}
	for _, def := range r.p.Deferred {
		blob, err := def.Fill(layout)
		if err != nil {
			return nil, nil, fmt.Errorf("core: deferred %q: %w", def.Name, err)
		}
		if len(blob) != def.Size {
			return nil, nil, fmt.Errorf("core: deferred %q produced %d bytes, want %d", def.Name, len(blob), def.Size)
		}
		copy(dataExtra[def.Addr-dataExtraBase:], blob)
	}

	// Output binary.
	out := &binfmt.Binary{Type: r.p.Bin.Type}
	out.Segments = append(out.Segments, binfmt.Segment{
		Kind: binfmt.Text, VAddr: r.text.Start, Data: r.image,
	})
	if d := r.p.Bin.DataSeg(); d != nil {
		out.Segments = append(out.Segments, binfmt.Segment{
			Kind:  binfmt.Data,
			VAddr: d.VAddr,
			Data:  append(append([]byte(nil), d.Data...), dataExtra...),
		})
	} else if len(dataExtra) > 0 {
		out.Segments = append(out.Segments, binfmt.Segment{
			Kind: binfmt.Data, VAddr: dataExtraBase, Data: dataExtra,
		})
	}
	if r.p.Bin.Type == binfmt.Exec {
		e, ok := r.addrOf(r.p.Entry)
		if !ok {
			return nil, nil, fmt.Errorf("core: entry instruction never placed")
		}
		out.Entry = e
	}
	out.Exports = append([]binfmt.Symbol(nil), r.p.Bin.Exports...)
	out.Imports = append([]binfmt.Import(nil), r.p.Bin.Imports...)
	out.Libs = append([]string(nil), r.p.Bin.Libs...)
	if err := out.Validate(); err != nil {
		return nil, nil, fmt.Errorf("core: output binary invalid: %w", err)
	}
	return out, layout, nil
}

// encodeInto encodes in straight into the image at address at. The
// image is sliced only now, after any veneer allocation that may have
// grown it.
func (r *reassembler) encodeInto(at uint32, in isa.Inst) error {
	off := at - r.text.Start
	_, err := r.arch.AppendEncode(r.image[off:off], in)
	return err
}

// patch returns IR instruction n as it must be encoded at its final
// address, resolving logical and absolute targets.
func (r *reassembler) patch(n *ir.Instruction, addr uint32) (isa.Inst, error) {
	in := n.Inst
	resolveDest := func() (uint32, error) {
		if n.Target != nil {
			d, ok := r.addrOf(n.Target)
			if !ok {
				return 0, fmt.Errorf("core: %s targets unplaced instruction", n)
			}
			return d, nil
		}
		return n.AbsTarget, nil
	}
	hasRef := n.Target != nil || n.AbsTarget != 0
	if hasRef {
		switch in.Op {
		case isa.OpJmp8, isa.OpJmp32, isa.OpJcc8, isa.OpJcc32, isa.OpCall, isa.OpLoadPC:
			dest, err := resolveDest()
			if err != nil {
				return isa.Inst{}, err
			}
			ilen := int64(r.arch.InstLen(in))
			disp := int64(dest) - int64(addr) - ilen
			if (in.Op == isa.OpJmp8 || in.Op == isa.OpJcc8) && (disp < -128 || disp > 127) {
				return isa.Inst{}, fmt.Errorf("core: short branch %s out of range after placement", n)
			}
			if r.arch.BranchReach() != 0 && !r.arch.BranchDispOK(disp) {
				switch in.Op {
				case isa.OpJmp32, isa.OpJcc32, isa.OpCall:
					// Route the branch through a range-extension island;
					// the island forwards to dest with call/jcc semantics
					// intact (loadpc is not a transfer and keeps its full
					// rel32 immediate).
					v, verr := r.veneerFor(dest, addr, int(ilen))
					if verr != nil {
						return isa.Inst{}, verr
					}
					disp = int64(v) - int64(addr) - ilen
				}
			}
			in.Imm = int32(disp)
		case isa.OpLea:
			dest, err := resolveDest()
			if err != nil {
				return isa.Inst{}, err
			}
			if n.Target != nil {
				// Materialize the rewritten code address (same length).
				in = isa.Inst{Op: isa.OpMovI, Rd: in.Rd, Imm: int32(dest)}
			} else {
				in.Imm = int32(int64(dest) - int64(addr) - int64(r.arch.InstLen(in)))
			}
		case isa.OpMovI, isa.OpPushI32, isa.OpCmpI:
			dest, err := resolveDest()
			if err != nil {
				return isa.Inst{}, err
			}
			in.Imm = int32(dest)
		default:
			return isa.Inst{}, fmt.Errorf("core: %s has a target but is not patchable", n)
		}
	}
	return in, nil
}

package infer

import (
	"encoding/binary"

	"zipr/internal/binfmt"
	"zipr/internal/isa"
)

// This file is the fixed-point engine: two semi-naive evaluations over
// the flow-edge relation. Both are worklist-driven — each round
// processes only the delta derived in the previous round — and both
// ascend (or descend) a finite lattice monotonically, so termination
// is structural, not fuel-limited:
//
//   - refuteDeadEnds descends: viability bits only flip true→false,
//     at most once per candidate, and each flip enqueues only the
//     flipped candidate's predecessors.
//   - propagateCode ascends: code weights only increase, are capped at
//     WeightStrong, and a candidate re-enters the worklist only when
//     its weight actually rose.
//
// A cyclic edge graph is the interesting case for both. Mutually
// looping candidates have no dead end to propagate from, so the
// greatest fixed point keeps them viable (conservative: they stay
// pinnable ambiguity unless positive data evidence demotes them); and
// code-weight propagation around a cycle stabilizes the first time the
// decayed weight stops exceeding the stored one.

// refuteDeadEnds computes candidate viability as a greatest fixed
// point: start from "every decode is viable" and retract every
// candidate one of whose required successors is undecodable,
// structurally impossible, or already refuted. Refuted candidates gain
// the RuleDeadEnd junk belief — the decode cannot be real code because
// executing it would inevitably reach bytes that do not decode.
func (r *Result) refuteDeadEnds() {
	ops := r.tab.Insts
	n := len(ops)
	// The predecessor relation in CSR form: preds[at[s]:at[s+1]] lists,
	// in ascending order, the candidates whose viability requires s. A
	// first pass counts edges per successor (and seeds the outright
	// refutations), a prefix sum turns the counts into bucket ends, and a
	// descending second pass fills each bucket back to front. That is a
	// constant number of allocations however large the text, with the
	// worklist retracting in a fixed order: ascending within a bucket.
	at := make([]int32, n+1)
	// The retraction worklist (the semi-naive delta). A candidate enters
	// it at most once, when its viability flips.
	dead := make([]int32, 0, r.stats.Candidates)
	var succs []int

	for off := 0; off < n; off++ {
		if ops[off].Op == isa.OpInvalid {
			continue
		}
		var ok bool
		succs, ok = r.flowSuccs(off, succs[:0])
		if !ok {
			dead = append(dead, int32(off))
			continue
		}
		r.viable.Set(off)
		for _, s := range succs {
			if ops[s].Op == isa.OpInvalid {
				// Required successor does not decode: refuted outright.
				if r.viable.Has(off) {
					r.viable.Clear(off)
					dead = append(dead, int32(off))
				}
				continue
			}
			at[s]++
		}
	}
	for s := 1; s <= n; s++ {
		at[s] += at[s-1]
	}
	preds := make([]int32, at[n])
	for off := n - 1; off >= 0; off-- {
		if ops[off].Op == isa.OpInvalid {
			continue
		}
		var ok bool
		if succs, ok = r.flowSuccs(off, succs[:0]); !ok {
			continue
		}
		for _, s := range succs {
			if ops[s].Op != isa.OpInvalid {
				at[s]--
				preds[at[s]] = int32(off)
			}
		}
	}

	for len(dead) > 0 {
		s := dead[len(dead)-1]
		dead = dead[:len(dead)-1]
		r.stats.Iterations++
		for _, p := range preds[at[s]:at[s+1]] {
			if r.viable.Has(int(p)) {
				r.viable.Clear(int(p))
				dead = append(dead, p)
			}
		}
	}

	for off := 0; off < n; off++ {
		if ops[off].Op == isa.OpInvalid || r.viable.Has(off) || r.strong.Has(off) {
			continue
		}
		r.stats.Nonviable++
		if WeightDeadEnd > r.junkW[off] {
			r.junkW[off], r.junkRule[off] = WeightDeadEnd, RuleDeadEnd
		}
	}
}

// propagateCode computes code beliefs as a least fixed point. Seeds:
// provably-reached starts at WeightStrong (the axiom), and viable
// targets of stored pointer words at WeightPtrTarget — an address
// something in the binary *names* is plausibly an entry even when no
// direct flow reaches it (the jump-table case). Belief then flows
// along fallthrough and direct branch/call edges, decaying hopDecay
// per edge but never below codeFloor, so any candidate transitively
// named by real evidence keeps enough belief to block demotion.
func (r *Result) propagateCode(bin *binfmt.Binary) {
	n := len(r.tgt)
	type raise struct {
		off int32
		w   uint8
	}
	work := make([]raise, 0, r.stats.StrongStarts) // every strong start is lifted

	lift := func(off int, w uint8, rule RuleID) {
		if w <= r.codeW[off] {
			return
		}
		r.codeW[off], r.codeRule[off] = w, rule
		r.stats.Raised++
		work = append(work, raise{int32(off), w})
	}

	for off := 0; off < n; off++ {
		if r.strong.Has(off) {
			lift(off, WeightStrong, RuleStrongReach)
		}
	}
	// Pointer-word targets: both the data-segment scan and the in-text
	// table slots found by extractFacts. The in-text slots were recorded
	// as RuleTableSlot data bytes; recover their targets here.
	text := bin.Text()
	for si := range bin.Segments {
		seg := &bin.Segments[si]
		if seg.Kind != binfmt.Data {
			continue
		}
		for o := 0; o+4 <= len(seg.Data); o += 4 {
			v := binary.LittleEndian.Uint32(seg.Data[o:])
			if text.Contains(v) {
				if toff := int(v - r.base); r.viable.Has(toff) {
					lift(toff, WeightPtrTarget, RulePtrTarget)
				}
			}
		}
	}
	for _, toff := range r.ptrTargets {
		if r.viable.Has(int(toff)) {
			lift(int(toff), WeightPtrTarget, RulePtrTarget)
		}
	}

	var succs []int
	for len(work) > 0 {
		cur := work[len(work)-1]
		work = work[:len(work)-1]
		r.stats.Iterations++
		off := int(cur.off)
		if cur.w < r.codeW[off] {
			continue // superseded by a later, higher raise
		}
		if r.tab.Insts[off].Op == isa.OpInvalid {
			continue
		}
		next := cur.w - hopDecay
		if next < codeFloor {
			next = codeFloor
		}
		var ok bool
		succs, ok = r.flowSuccs(off, succs[:0])
		if !ok {
			continue
		}
		for _, s := range succs {
			if r.viable.Has(s) {
				lift(s, next, RuleCodeFlow)
			}
		}
	}
}

package infer

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
	tab := r.tab
	n, k := len(r.dataW), len(tab.Insts)
	// The predecessor relation in CSR form, by rank: preds[at[s]:at[s+1]]
	// lists, in ascending order, the candidates whose viability requires
	// candidate s. A first pass counts edges per successor into at[s+2]
	// (and seeds the outright refutations), a prefix sum turns the counts
	// into bucket ends, and a second ascending pass fills bucket s
	// through its cursor at[s+1], which it leaves at the bucket's end.
	// That is a constant number of allocations however large the text,
	// with the worklist retracting in a fixed order: ascending within a
	// bucket.
	at := make([]int32, k+2)
	// The retraction worklist (the semi-naive delta). A candidate enters
	// it at most once, when its viability flips.
	dead := make([]int32, 0, k)
	var succs []int

	for off, p := tab.Next(0); off < n; off, p = tab.Next(off + 1) {
		var ok bool
		succs, ok = r.flowSuccs(off, p, succs[:0])
		if !ok {
			dead = append(dead, int32(p))
			continue
		}
		r.viable.Set(p)
		for _, s := range succs {
			sk, ok := tab.Rank(s)
			if !ok {
				// Required successor does not decode: refuted outright.
				if r.viable.Has(p) {
					r.viable.Clear(p)
					dead = append(dead, int32(p))
				}
				continue
			}
			at[sk+2]++
		}
	}
	for s := 2; s < len(at); s++ {
		at[s] += at[s-1]
	}
	preds := make([]int32, at[k+1])
	for off, p := tab.Next(0); off < n; off, p = tab.Next(off + 1) {
		var ok bool
		if succs, ok = r.flowSuccs(off, p, succs[:0]); !ok {
			continue
		}
		for _, s := range succs {
			if sk, ok := tab.Rank(s); ok {
				preds[at[sk+1]] = int32(p)
				at[sk+1]++
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

	for p := 0; p < k; p++ {
		if r.viable.Has(p) || r.strong.Has(p) {
			continue
		}
		r.stats.Nonviable++
		if WeightDeadEnd > r.junkW[p] {
			r.junkW[p], r.junkRule[p] = WeightDeadEnd, RuleDeadEnd
		}
	}
}

// propagateCode computes code beliefs as a least fixed point. Seeds:
// provably-reached starts at WeightStrong (the axiom), and viable
// targets of in-text table slots at WeightPtrTarget — an address
// something in the binary *names* is plausibly an entry even when no
// direct flow reaches it (the jump-table case). Belief then flows
// along fallthrough and direct branch/call edges, decaying hopDecay
// per edge but never below codeFloor, so any candidate transitively
// named by real evidence keeps enough belief to block demotion.
func (r *Result) propagateCode() {
	tab := r.tab
	type raise struct {
		off int32
		w   uint8
	}
	// Every strong start is lifted, and every table-slot target may be.
	work := make([]raise, 0, r.stats.StrongStarts+len(r.ptrTargets))

	lift := func(off, k int, w uint8, rule RuleID) {
		if w <= r.codeW[k] {
			return
		}
		r.codeW[k], r.codeRule[k] = w, rule
		r.stats.Raised++
		work = append(work, raise{int32(off), w})
	}
	// liftViable lifts the candidate at text offset off, if it is one
	// and viable.
	liftViable := func(off int, w uint8, rule RuleID) {
		if k, ok := tab.Rank(off); ok && r.viable.Has(k) {
			lift(off, k, w, rule)
		}
	}

	tab.Each(r.strong, func(off, k int) bool {
		lift(off, k, WeightStrong, RuleStrongReach)
		return true
	})
	for _, toff := range r.ptrTargets {
		liftViable(int(toff), WeightPtrTarget, RulePtrTarget)
	}

	var succs []int
	for len(work) > 0 {
		cur := work[len(work)-1]
		work = work[:len(work)-1]
		r.stats.Iterations++
		off := int(cur.off)
		k, _ := tab.Rank(off)
		if cur.w < r.codeW[k] {
			continue // superseded by a later, higher raise
		}
		next := cur.w - hopDecay
		if next < codeFloor {
			next = codeFloor
		}
		var ok bool
		succs, ok = r.flowSuccs(off, k, succs[:0])
		if !ok {
			continue
		}
		for _, s := range succs {
			liftViable(s, next, RuleCodeFlow)
		}
	}
}

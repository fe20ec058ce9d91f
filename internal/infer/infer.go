// Package infer is the third disassembler: a Datalog-style inference
// engine over facts extracted from the binary, modeled on Datalog
// Disassembly (ddisasm). Where the linear sweep answers "does it
// decode" and the recursive traversal answers "is it provably
// reached", inference answers the question the two-way aggregation
// cannot: of the bytes that decode but are not provably reached, which
// are *actually* data?
//
// The pipeline is classic bottom-up Datalog, specialized and
// hand-compiled:
//
//  1. Fact extraction reads the shared decode table (isa.DecodeTable,
//     filled once per disassembly for all three disassemblers), whose
//     candidate relation — the offsets that decode, each with a dense
//     rank — is the fact base's key: every per-candidate relation is an
//     array indexed by rank, and only facts about bytes are per byte.
//     It materializes the ground relations: fallthrough/branch/call
//     edges between candidates, data-access targets (loadpc reads),
//     in-text pointer words, printable-string runs, and overlap
//     conflicts against the provably-reached instruction set.
//  2. A semi-naive fixed-point engine (engine.go) evaluates the
//     weighted rule set: each round propagates only the delta — beliefs
//     raised in the previous round — along edges, so work is
//     proportional to derived facts, not rounds times relations.
//     Beliefs combine by max and are capped at WeightStrong, so the
//     ascent is monotone on a finite lattice and terminates on any
//     input, including cyclic edge graphs.
//  3. The output is a per-address belief map: code weight and data
//     weight in [0,100], each tagged with the rule that set it
//     (provenance), plus run statistics for the infer.* metrics.
//
// The consumer (internal/disasm's weighted arbitration) only ever uses
// a confident *data* verdict to demote an ambiguous candidate — it
// never promotes bytes to relocatable code — so an inference mistake
// in the code direction costs nothing, and a mistake in the data
// direction is bounded by the verdict thresholds and vetoable per-site
// through fault injection.
package infer

import (
	"encoding/binary"

	"zipr/internal/binfmt"
	"zipr/internal/isa"
)

// RuleID names the inference rule that established a belief, for
// provenance in diagnostics and tests.
type RuleID uint8

// Rule identifiers. Code rules raise code beliefs; data rules raise
// data beliefs (per byte or per candidate start).
const (
	RuleNone        RuleID = iota
	RuleStrongReach        // code: reached from entry/export/data-pointer seeds
	RulePtrTarget          // code: an in-text pointer word names this address
	RuleCodeFlow           // code: flow edge from a believed-code candidate
	RuleDataAccess         // data: a provably-reached loadpc reads these bytes
	RuleTableSlot          // data: aligned in-text word holding a code pointer
	RuleStringRun          // data: printable/NUL string run
	RuleDeadEnd            // data: every decode chain hits undecodable bytes
	RuleOverlap            // data: decode straddles a provably-reached instruction
	RuleDataGap            // data: short gap bridging two data-evidenced bytes
)

var ruleNames = [...]string{
	RuleNone:        "none",
	RuleStrongReach: "strong-reach",
	RulePtrTarget:   "ptr-target",
	RuleCodeFlow:    "code-flow",
	RuleDataAccess:  "data-access",
	RuleTableSlot:   "table-slot",
	RuleStringRun:   "string-run",
	RuleDeadEnd:     "dead-end",
	RuleOverlap:     "overlap",
	RuleDataGap:     "data-gap",
}

// String returns the rule's stable kebab-case name.
func (r RuleID) String() string {
	if int(r) < len(ruleNames) {
		return ruleNames[r]
	}
	return "rule(?)"
}

// Rule weights and verdict thresholds. Weights live on a 0..100 scale;
// beliefs combine by max. The thresholds encode the safety policy: a
// candidate is only demoted to data when its data belief clears
// DataThreshold AND its code belief stays below CodeKeep — any code
// evidence at all (reachability from a pointer word, a coherent flow
// chain) blocks demotion, and everything below both thresholds falls
// back to the conservative pin treatment.
const (
	WeightStrong     = 100 // axiom: provably reached
	WeightDataAccess = 90  // loadpc from strong code reads these bytes
	WeightOverlap    = 85  // decode straddles strong code
	WeightDeadEnd    = 80  // all decode chains reach undecodable bytes
	WeightPtrTarget  = 70  // pointer word names this address
	WeightTableSlot  = 70  // the pointer word's own bytes
	WeightString     = 60  // printable run
	WeightDataGap    = 60  // bytes bridging two data-evidenced neighbors
	maxDataGap       = 8   // widest gap the coalescing rule bridges
	hopDecay         = 5   // code belief lost per flow edge
	codeFloor        = 55  // flow propagation never decays below this

	// CodeKeep is the code-belief level at or above which a candidate is
	// never demoted.
	CodeKeep = 50
	// DataThreshold is the data-belief level required to demote.
	DataThreshold = 60
)

// Verdict is the arbitration-facing summary of a candidate's beliefs.
type Verdict uint8

// Verdicts.
const (
	// VerdictUnknown: neither belief clears its threshold — the caller
	// must fall back to the conservative (pin) treatment.
	VerdictUnknown Verdict = iota
	// VerdictCode: code belief at or above CodeKeep.
	VerdictCode
	// VerdictData: data belief at or above DataThreshold with code
	// belief below CodeKeep — safe to treat as data.
	VerdictData
)

// Stats summarizes one inference run for the infer.* metrics.
type Stats struct {
	Candidates   int // offsets that decode
	StrongStarts int // provably-reached instruction starts
	FactBytes    int // bytes covered by ground data facts
	Nonviable    int // candidates refuted by the dead-end rule
	Raised       int // belief raises during fixed-point evaluation
	Iterations   int // worklist pops across both fixed points
}

// Result holds per-address beliefs with rule provenance. Candidate
// facts are indexed by the candidate's rank in tab; byte facts by text
// offset.
type Result struct {
	base uint32
	// tab is the candidate relation: the offsets that decode, each
	// candidate's rank, decode and length.
	tab *isa.DecodeTable

	tgt       []int32    // by rank: static target, a text offset, tgtNone or tgtWild
	strongCov isa.Bitset // by byte: covered by a provably-reached instruction
	strong    isa.Bitset // by rank: a provably-reached instruction start
	viable    isa.Bitset // by rank: the decode chains avoid dead ends

	codeW    []uint8 // by rank: code belief
	codeRule []RuleID
	dataW    []uint8 // by byte: data belief
	dataRule []RuleID
	junkW    []uint8 // by rank: data belief (the decode itself is junk)
	junkRule []RuleID

	// ptrTargets are in-text offsets named by stored pointer words
	// (table slots); propagateCode seeds them at WeightPtrTarget. The
	// targets of data-segment words need no such seed: they are strong
	// reachability seeds, so every candidate among them is already a
	// strong start at WeightStrong.
	ptrTargets []int32

	stats Stats
}

// Stats returns the run's fact and fixed-point counters.
func (r *Result) Stats() Stats { return r.stats }

// rank returns the candidate rank of addr and whether a candidate
// starts there.
func (r *Result) rank(addr uint32) (int, bool) {
	if r.tab == nil {
		return 0, false
	}
	return r.tab.Rank(int(addr - r.base))
}

// CodeBelief returns the code belief and provenance for a candidate
// starting at addr (0, RuleNone where no candidate starts).
func (r *Result) CodeBelief(addr uint32) (uint8, RuleID) {
	k, ok := r.rank(addr)
	if !ok {
		return 0, RuleNone
	}
	return r.codeW[k], r.codeRule[k]
}

// ByteBelief returns the per-byte data belief and provenance for the
// single byte at addr — the ground-fact view, without the
// candidate-level junk-decode component DataBelief folds in. Rule
// tests and diagnostics use it to check which fact covered a byte.
func (r *Result) ByteBelief(addr uint32) (uint8, RuleID) {
	off := addr - r.base
	if off >= uint32(len(r.dataW)) {
		return 0, RuleNone
	}
	return r.dataW[off], r.dataRule[off]
}

// DataBelief returns the data belief and provenance for a candidate
// instruction spanning [addr, addr+length). The per-byte component is
// the *minimum* over the span — every byte must carry data evidence —
// maxed with the candidate-level junk-decode belief.
func (r *Result) DataBelief(addr uint32, length int) (uint8, RuleID) {
	off := int(addr - r.base)
	if off < 0 || off >= len(r.dataW) || length <= 0 {
		return 0, RuleNone
	}
	w, rule := uint8(0), RuleNone
	if k, ok := r.rank(addr); ok {
		w, rule = r.junkW[k], r.junkRule[k]
	}
	end := off + length
	if end > len(r.dataW) {
		end = len(r.dataW)
	}
	minW, minRule := uint8(255), RuleNone
	for i := off; i < end; i++ {
		if r.dataW[i] < minW {
			minW, minRule = r.dataW[i], r.dataRule[i]
		}
	}
	if minW != 255 && minW > w {
		w, rule = minW, minRule
	}
	return w, rule
}

// Verdict arbitrates the beliefs for a candidate spanning
// [addr, addr+length) against the demotion thresholds.
func (r *Result) Verdict(addr uint32, length int) (Verdict, RuleID) {
	if cw, crule := r.CodeBelief(addr); cw >= CodeKeep {
		return VerdictCode, crule
	}
	if dw, drule := r.DataBelief(addr, length); dw >= DataThreshold {
		return VerdictData, drule
	}
	return VerdictUnknown, RuleNone
}

// Analyze runs fact extraction and the weighted fixed point over bin's
// text segment, whose candidate relation tab holds (see
// isa.DecodeTable; tab is unused when bin has no text). It only reads
// bin and tab, so it is safe to run concurrently with the other two
// disassemblers. On fixed-width ISAs only aligned offsets decode, so
// the fact base holds at most one candidate per alignment unit, with
// every rule unchanged.
func Analyze(bin *binfmt.Binary, tab *isa.DecodeTable) *Result {
	text := bin.Text()
	if text == nil {
		return &Result{}
	}
	n, k := len(text.Data), len(tab.Insts)
	r := &Result{
		base:      text.VAddr,
		tab:       tab,
		tgt:       make([]int32, k),
		strongCov: isa.NewBitset(n),
		strong:    isa.NewBitset(k),
		viable:    isa.NewBitset(k),
		codeW:     make([]uint8, k),
		codeRule:  make([]RuleID, k),
		dataW:     make([]uint8, n),
		dataRule:  make([]RuleID, n),
		junkW:     make([]uint8, k),
		junkRule:  make([]RuleID, k),
		stats:     Stats{Candidates: k},
	}
	r.extractFacts(bin)
	r.refuteDeadEnds()
	r.propagateCode()
	return r
}

// extractFacts materializes the ground relations: candidate decodes,
// the strong-reachability closure, data-access targets, table slots,
// and string runs.
func (r *Result) extractFacts(bin *binfmt.Binary) {
	text := bin.Text()
	tab, ops, lens := r.tab, r.tab.Insts, r.tab.Lens
	n := len(r.dataW)

	// Candidate instruction starts: every offset the table decodes.
	for off, k := tab.Next(0); off < n; off, k = tab.Next(off + 1) {
		r.tgt[k] = r.target(bin, ops[k], off)
	}

	// Strong reachability: the same seed set the recursive traversal
	// trusts (entry, exports, aligned data-segment words pointing into
	// text), closed over fallthrough and direct-branch edges. Inference
	// recomputes it rather than importing the recursive result so the
	// three disassemblers stay independent votes.
	var work []uint32
	seed := func(a uint32) {
		if text.Contains(a) {
			work = append(work, a)
		}
	}
	if bin.Type == binfmt.Exec {
		seed(bin.Entry)
	}
	for _, e := range bin.Exports {
		seed(e.Addr)
	}
	for si := range bin.Segments {
		seg := &bin.Segments[si]
		if seg.Kind != binfmt.Data {
			continue
		}
		for off := 0; off+4 <= len(seg.Data); off += 4 {
			seed(binary.LittleEndian.Uint32(seg.Data[off:]))
		}
	}
	for len(work) > 0 {
		addr := work[len(work)-1]
		work = work[:len(work)-1]
		off := int(addr - r.base)
		k, ok := tab.Rank(off)
		if !ok || r.strong.Has(k) {
			continue
		}
		in := ops[k]
		r.strong.Set(k)
		r.stats.StrongStarts++
		r.strongCov.SetRange(off, off+int(lens[k]))
		if in.HasFallthrough() {
			seed(addr + uint32(lens[k]))
		}
		// A lea/loadpc target is address formation or a data reference,
		// not a code edge.
		if t := r.tgt[k]; t >= 0 && !in.IsPCRelData() {
			seed(r.base + uint32(t))
		}
	}

	markData := func(b int, w uint8, rule RuleID) {
		if b < 0 || b >= n || r.strongCov.Has(b) || w <= r.dataW[b] {
			return
		}
		if r.dataW[b] == 0 {
			r.stats.FactBytes++
		}
		r.dataW[b], r.dataRule[b] = w, rule
	}

	// One pass over the candidates for two independent facts.
	// Data-access targets: a provably-reached loadpc names four bytes
	// that the program reads as data. Overlap conflicts: a candidate
	// whose span straddles bytes of a provably-reached instruction
	// without being one is a junk decode.
	for off, k := tab.Next(0); off < n; off, k = tab.Next(off + 1) {
		if r.strong.Has(k) {
			if t := int(r.tgt[k]); ops[k].Op == isa.OpLoadPC && t >= 0 {
				for i := 0; i < 4; i++ {
					markData(t+i, WeightDataAccess, RuleDataAccess)
				}
			}
			continue
		}
		for i := off; i < off+int(lens[k]); i++ {
			if r.strongCov.Has(i) {
				r.junkW[k], r.junkRule[k] = WeightOverlap, RuleOverlap
				break
			}
		}
	}

	// Table slots: an aligned word inside text, outside strong coverage,
	// whose value is the address of a decodable candidate is a stored
	// code pointer — its four bytes are data, and its target is a code
	// entry (consumed as a seed by propagateCode).
	for off := int((4 - r.base%4) % 4); off+4 <= n; off += 4 {
		if r.strongCov.Has(off) || r.strongCov.Has(off+1) || r.strongCov.Has(off+2) || r.strongCov.Has(off+3) {
			continue
		}
		v := binary.LittleEndian.Uint32(text.Data[off:])
		if !text.Contains(v) {
			continue
		}
		toff := v - r.base
		if _, ok := tab.Rank(int(toff)); !ok {
			continue
		}
		r.ptrTargets = append(r.ptrTargets, int32(toff))
		for i := 0; i < 4; i++ {
			markData(off+i, WeightTableSlot, RuleTableSlot)
		}
	}

	// String runs: maximal runs of printable bytes outside strong
	// coverage, length >= 5, or >= 4 with a NUL terminator (which joins
	// the run).
	for i := 0; i < n; {
		if r.strongCov.Has(i) || !printable(text.Data[i]) {
			i++
			continue
		}
		j := i
		for j < n && !r.strongCov.Has(j) && printable(text.Data[j]) {
			j++
		}
		end, runLen := j, j-i
		if runLen >= 4 && j < n && text.Data[j] == 0 && !r.strongCov.Has(j) {
			end++
		}
		if runLen >= 5 || end > j {
			for b := i; b < end; b++ {
				markData(b, WeightString, RuleStringRun)
			}
		}
		i = j
	}

	// Data coalescing: data objects sit adjacent in memory (a program
	// that stores one word and one string back to back rarely wedges
	// live code in between), so a short unevidenced gap whose both
	// neighbors inside the same non-strong run carry data evidence is
	// itself data. Bounded at maxDataGap bytes: anything wider could be
	// a small in-place code island and keeps the conservative
	// treatment. Code-believed candidates are additionally protected by
	// the Verdict threshold order (code belief always wins).
	for i := 0; i < n; {
		if r.strongCov.Has(i) || r.dataW[i] == 0 {
			i++
			continue
		}
		j := i + 1 // i is evidenced; find the next evidenced byte in the run
		for j < n && !r.strongCov.Has(j) && r.dataW[j] == 0 {
			j++
		}
		if j < n && !r.strongCov.Has(j) && r.dataW[j] != 0 && j-i-1 <= maxDataGap {
			for b := i + 1; b < j; b++ {
				markData(b, WeightDataGap, RuleDataGap)
			}
		}
		i = j
	}
}

func printable(b byte) bool { return b >= 0x20 && b <= 0x7E }

// Candidate target sentinels in Result.tgt (real targets are text
// offsets, >= 0).
const (
	// tgtNone: no code or text-data target — no static target at all,
	// or a PC-relative address into a segment other than text.
	tgtNone = -1
	// tgtWild: a structurally impossible target — a direct branch out
	// of text, or a PC-relative address pointing into no segment at all.
	tgtWild = -2
)

// target classifies the static target of candidate in at off for
// Result.tgt. A PC-relative address pointing into no segment at all is
// a wild displacement — strong junk evidence. (One-past-end of a
// segment is allowed: end pointers are legitimate.)
func (r *Result) target(bin *binfmt.Binary, in isa.Inst, off int) int32 {
	t, ok := r.tab.Arch.TargetAddr(in, r.base+uint32(off))
	if !ok {
		return tgtNone
	}
	text := bin.Text()
	if in.IsPCRelData() {
		hit := false
		for si := range bin.Segments {
			seg := &bin.Segments[si]
			if t >= seg.VAddr && t <= seg.End() {
				hit = true
				break
			}
		}
		switch {
		case !hit:
			return tgtWild
		case !text.Contains(t):
			return tgtNone
		}
	} else if !text.Contains(t) {
		return tgtWild
	}
	return int32(t - r.base)
}

// flowSuccs appends the offsets the candidate of rank k at off requires
// to be viable code for itself to be viable: its fallthrough and its
// direct branch/call target. ok=false means a successor is structurally
// impossible (falls off the end of text, branches outside text, or
// forms a PC-relative address outside every segment) and the candidate
// is refuted outright.
func (r *Result) flowSuccs(off, k int, dst []int) (_ []int, ok bool) {
	in := r.tab.Insts[k]
	if in.HasFallthrough() {
		ft := off + int(r.tab.Lens[k])
		if ft >= len(r.dataW) {
			return dst, false // execution would run off the end of text
		}
		dst = append(dst, ft)
	}
	switch t := r.tgt[k]; {
	case t == tgtWild:
		return dst, false
	case t >= 0 && !in.IsPCRelData():
		dst = append(dst, int(t))
	}
	return dst, true
}

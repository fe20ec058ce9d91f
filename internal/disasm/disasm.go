// Package disasm disassembles binaries under an isa.Arch (ZVM-32 or
// ZVM-64; Options.Arch, nil meaning ZVM-32) with two strategies — a
// linear sweep (objdump-like) and a recursive traversal (IDA-like) —
// and aggregates their output using the paper's four-case
// code/data disambiguation policy:
//
//  1. Both agree a byte range is code reached from known entries: the
//     range is relocatable code.
//  2. A range is conclusively data (it does not decode): it is fixed at
//     its original address.
//  3. A range is ambiguous (it decodes but is not provably reached):
//     it is treated as *both* code and data — the bytes stay fixed at
//     their original address and the decoded instructions are also fed
//     to CFG construction so their branch targets get pinned.
//  4. A range labeled code actually holds data: this cannot always be
//     detected; the aggregation stays conservative (case 3) whenever
//     there is any disagreement, and emits warnings to aid debugging.
//
// All three disassemblers (the inference vote of ArbWeighted included)
// read one isa.DecodeTable, filled at the start of each run: the
// candidate relation, every offset that decodes with its instruction
// stored densely by rank, so no disassembler decodes again. Their sets of
// instruction starts are bitsets over candidate ranks, their byte sets
// bitsets over text offsets, and so is the merged view: a byte is code
// in Aggregated.Code, ambiguous in Aggregated.Ambig and data in neither,
// and the fixed ranges are the runs outside Code. The fan-out sits where
// the work is: both passes of the table fill split into two halves, and
// under weighted arbitration inference runs on its own goroutine beside
// the two walks (Options.Serial forces one goroutine for comparison). The merged
// Aggregated view is byte-identical either way, because the table is the
// same and aggregation starts only after every vote is in.
package disasm

import (
	"encoding/binary"
	"fmt"
	"sync"

	"zipr/internal/binfmt"
	"zipr/internal/fault"
	"zipr/internal/infer"
	"zipr/internal/ir"
	"zipr/internal/isa"
	"zipr/internal/obs"
)

// Result is the output of a single disassembler.
type Result struct {
	// Insts holds the instruction starts the disassembler claims as code.
	Insts *InstMap
	// Weak holds instructions decoded only from address-shaped hints (lea
	// targets, immediates that look like code pointers). Such bytes
	// might be data — a jump table is indistinguishable from code at a
	// lea target — so they are never relocated: the aggregator treats
	// them as code AND data (paper case 3), and CFG construction uses
	// their decodes only to pin targets conservatively.
	Weak *InstMap
	// Code marks the text offsets covered by Insts; every other byte is
	// data to this disassembler.
	Code isa.Bitset
}

// LinearSweep walks tab from its first byte onward, resynchronizing
// after undecodable bytes the way objdump -D works: it steps from the
// end of each instruction to the next candidate. On fixed-width ISAs the
// sweep keeps the alignment phase of the text's first byte, so at a
// misaligned base, where every candidate is out of that phase, it
// decodes nothing.
func LinearSweep(tab *isa.DecodeTable) Result {
	n := len(tab.Text)
	res := Result{Insts: newInstMap(tab), Code: isa.NewBitset(n)}
	align := int(tab.Arch.Align())
	off, r := tab.Next(0)
	for off < n && off%align == 0 {
		l := int(tab.Lens[r])
		res.Insts.add(r)
		res.Code.SetRange(off, off+l)
		off, r = tab.Next(off + l)
	}
	return res
}

// RecursiveTraversal follows control flow over tab from every known
// entry point of bin. It distinguishes two tiers of confidence:
//
//   - Strong seeds — the program entry, exported symbols, and code
//     pointers discovered by scanning data segments — plus everything
//     reachable from them through fallthroughs and direct branches, are
//     relocatable code (Result.Insts).
//   - Weak seeds — lea targets and address-shaped absolute immediates —
//     plus their flow, are recorded in Result.Weak but NOT classified
//     as code: a lea may just as well name a jump table or other data
//     embedded in text, and mislabeling data as relocatable code is the
//     one unrecoverable failure mode (paper case 4). Weak bytes stay at
//     their original addresses.
//
// A non-nil injector with DisasmDisagree armed demotes seeded data-scan
// pointers from the strong tier to the weak tier: the functions they
// reach become "decode but are not provably reached", which downstream
// phases must handle with the paper's case-3 policy (bytes fixed in
// place, targets pinned via the ambiguous set).
func RecursiveTraversal(bin *binfmt.Binary, tab *isa.DecodeTable, inj *fault.Injector) Result {
	res := Result{Insts: newInstMap(tab), Weak: newInstMap(tab), Code: isa.NewBitset(len(tab.Text))}
	visitedStrong, visitedWeak := isa.NewBitset(len(tab.Insts)), isa.NewBitset(len(tab.Insts))
	var strong, weak []uint32
	text := bin.Text()
	inText := func(a uint32) bool { return text.Contains(a) }

	seedStrong := func(a uint32) {
		if inText(a) {
			strong = append(strong, a)
		}
	}
	seedWeak := func(a uint32) {
		if inText(a) {
			weak = append(weak, a)
		}
	}
	if bin.Type == binfmt.Exec {
		seedStrong(bin.Entry)
	}
	for _, e := range bin.Exports {
		seedStrong(e.Addr)
	}
	// Data scan: aligned words in data segments pointing into text are
	// function pointers and jump-table slots — strong, since indirect
	// control flow lands exactly on them.
	for si := range bin.Segments {
		seg := &bin.Segments[si]
		if seg.Kind != binfmt.Data {
			continue
		}
		for off := 0; off+4 <= len(seg.Data); off += 4 {
			v := binary.LittleEndian.Uint32(seg.Data[off:])
			if inText(v) && inj.Fires(fault.DisasmDisagree, v) {
				seedWeak(v) // injected disagreement: evidence downgraded
				continue
			}
			seedStrong(v)
		}
	}

	// step takes the decode of the candidate of rank r at addr,
	// recording flow into the given tier's worklist; weak traversal
	// never overrides strong coverage.
	step := func(addr uint32, r int, isStrong bool) {
		off := int(addr - tab.Base)
		in, l := tab.Insts[r], int(tab.Lens[r])
		flow := seedWeak
		if isStrong {
			res.Insts.add(r)
			res.Code.SetRange(off, off+l)
			flow = seedStrong
		} else {
			res.Weak.add(r)
		}
		if in.HasFallthrough() {
			flow(addr + uint32(l))
		}
		if t, ok := tab.Arch.TargetAddr(in, addr); ok {
			switch in.Op {
			case isa.OpLea:
				seedWeak(t) // address formation: maybe code, maybe data
			case isa.OpLoadPC:
				// Data reference; not a code seed.
			default:
				flow(t)
			}
		}
		switch in.Op {
		case isa.OpMovI, isa.OpPushI32:
			seedWeak(uint32(in.Imm))
		}
	}
	// A seed that does not decode is left unknown.
	for len(strong) > 0 {
		addr := strong[len(strong)-1]
		strong = strong[:len(strong)-1]
		r, ok := tab.Rank(int(addr - tab.Base))
		if !ok || visitedStrong.Has(r) {
			continue
		}
		visitedStrong.Set(r)
		step(addr, r, true)
	}
	for len(weak) > 0 {
		addr := weak[len(weak)-1]
		weak = weak[:len(weak)-1]
		r, ok := tab.Rank(int(addr - tab.Base))
		if !ok || visitedStrong.Has(r) || visitedWeak.Has(r) {
			continue
		}
		visitedWeak.Set(r)
		step(addr, r, false)
	}
	return res
}

// Aggregated is the merged, conservative view consumed by CFG
// construction.
type Aggregated struct {
	// Insts holds the relocatable instructions (recursive-traversal
	// coverage), keyed by original address.
	Insts *InstMap
	// AmbigInsts holds instructions decoded inside ambiguous (fixed)
	// ranges; CFG construction pins their direct branch targets.
	AmbigInsts *InstMap
	// Fixed lists text ranges whose bytes must stay at their original
	// addresses (conclusive data plus ambiguous ranges).
	Fixed []ir.Range
	// Code marks the relocatable bytes by text offset: the recursive
	// traversal's coverage.
	Code isa.Bitset
	// Ambig marks the bytes outside Code that decode but are not
	// provably reached (paper case 3: code AND data). Every byte in
	// neither set is conclusive data.
	Ambig isa.Bitset
	// Warnings lists conservative-fallback diagnostics (the paper's
	// case-4 warnings), in ascending address order.
	Warnings []string
	// Demoted counts ambiguous candidates the weighted arbitration
	// reclassified as data (always 0 under two-way aggregation).
	Demoted int
	// Disputed counts demotions vetoed by infer-rule-disagree fault
	// injection (the candidate kept its conservative pin treatment).
	Disputed int
	// Arch is the ISA the binary was disassembled under; nil means the
	// default. CFG construction copies it into the Program.
	Arch isa.Arch

	// warnCands lists the linear-origin ambiguous direct branches, in
	// ascending order; finishAggregate turns the survivors into
	// Warnings after any arbitration pass has pruned the set.
	warnCands []uint32
}

// aggregateCore merges the two disassemblers' views per the four-case
// policy into the Code and Ambig byte sets and the ambiguous instruction
// set. It takes over both coverage bitsets: the recursive one becomes
// Code, the linear one Ambig. The instruction sets iterate in address
// order, so the ambiguous set comes out deterministic. Fixed ranges and
// warnings are derived afterwards by finishAggregate, so an arbitration
// pass can prune the ambiguous set in between.
func aggregateCore(tab *isa.DecodeTable, linear, recursive Result) Aggregated {
	agg := Aggregated{
		Insts:      recursive.Insts,
		AmbigInsts: newInstMap(tab),
		Code:       recursive.Code,
		Ambig:      linear.Code,
		Arch:       tab.Arch,
	}
	// Case 1: recursive coverage is authoritative code. Remaining
	// bytes: ambiguous if the linear sweep decoded them, conclusive data
	// otherwise.
	for w, code := range agg.Code {
		agg.Ambig[w] &^= code
	}
	// Instructions whose linear decode starts inside a non-code byte are
	// candidates for "both" handling (case 3).
	tab.Each(linear.Insts.set, func(off, r int) bool {
		if agg.Ambig.Has(off) {
			agg.AmbigInsts.add(r)
			if tab.Insts[r].IsDirectBranch() {
				agg.warnCands = append(agg.warnCands, tab.Base+uint32(off))
			}
		}
		return true
	})
	// Weak recursive decodes (lea targets and address immediates) join
	// the ambiguous set: they are plausible entry-aligned decodes, so
	// CFG construction should pin their targets, but their bytes stay
	// fixed in place. They also make their bytes ambiguous so fixed
	// ranges cover them even where the linear sweep misaligned.
	tab.Each(recursive.Weak.set, func(off, r int) bool {
		if agg.Code.Has(off) {
			return true
		}
		agg.AmbigInsts.add(r)
		for i := off; i < off+int(tab.Lens[r]); i++ {
			if !agg.Code.Has(i) {
				agg.Ambig.Set(i)
			}
		}
		return true
	})
	return agg
}

// finishAggregate derives the outputs that depend on the final
// ambiguous set: the case-4 warnings (ascending order, survivors of
// any arbitration pruning) and the fixed ranges, the maximal runs of
// the n text bytes outside Code, found a word at a time.
func finishAggregate(agg *Aggregated, base uint32, n int) {
	for _, addr := range agg.warnCands {
		in, ok := agg.AmbigInsts.Get(addr)
		if !ok {
			continue // demoted by arbitration
		}
		agg.Warnings = append(agg.Warnings, fmt.Sprintf(
			"disasm: ambiguous bytes at %#x decode to %s; treating as code and data",
			addr, in.String()))
	}
	for i := agg.Code.NextClear(0, n); i < n; {
		j := agg.Code.NextSet(i, n)
		agg.Fixed = append(agg.Fixed, ir.Range{Start: base + uint32(i), End: base + uint32(j)})
		i = agg.Code.NextClear(j, n)
	}
}

// applyArbitration is the weighted three-way vote. The linear sweep
// and the recursive traversal have already produced the conservative
// two-way view in agg; the inference result res casts the third vote.
// Arbitration is demote-only by construction: an ambiguous candidate
// whose inference verdict is confidently-data is dropped from the
// ambiguous set and its bytes (where no surviving candidate still
// covers them) become conclusive Data — removing the conservative pins
// its branch targets and address-shaped immediates would have forced.
// Candidates below threshold, or with any code belief, keep the
// conservative case-3 treatment, and no byte is ever promoted to
// relocatable Code, so fixed ranges cannot shrink and the in-place
// execution story of every kept byte is unchanged. An armed
// InferRuleDisagree injector vetoes individual demotions (site = the
// candidate's address): the worst case of every veto firing is exactly
// the two-way baseline.
func applyArbitration(agg *Aggregated, tab *isa.DecodeTable, res *infer.Result, inj *fault.Injector) {
	n := len(tab.Text)
	kept, demoted := isa.NewBitset(n), isa.NewBitset(n)
	var demote []uint32
	tab.Each(agg.AmbigInsts.set, func(off, r int) bool {
		addr, l := tab.Base+uint32(off), int(tab.Lens[r])
		verdict, _ := res.Verdict(addr, l)
		cover := kept
		if verdict == infer.VerdictData {
			if inj.Fires(fault.InferRuleDisagree, addr) {
				// Injected rule disagreement: the demotion is vetoed and
				// the candidate keeps its conservative pin treatment.
				agg.Disputed++
			} else {
				demote = append(demote, addr)
				cover = demoted
			}
		}
		cover.SetRange(off, off+l)
		return true
	})
	for _, addr := range demote {
		agg.AmbigInsts.Delete(addr)
	}
	agg.Demoted = len(demote)
	for w := range agg.Ambig {
		agg.Ambig[w] &^= demoted[w] &^ kept[w]
	}
}

// Arbitration selects the code/data disambiguation policy.
type Arbitration uint8

// Arbitration policies.
const (
	// ArbTwoWay is the paper's four-case policy over the linear sweep
	// and the recursive traversal (the default): every decodable but
	// unproven byte stays ambiguous and its targets get pinned.
	ArbTwoWay Arbitration = iota
	// ArbWeighted adds the inference disassembler (internal/infer) as a
	// third vote: ambiguous candidates it confidently classifies as
	// data are demoted — dropped from the ambiguous set so their pins
	// disappear — while everything below its thresholds keeps the
	// conservative two-way treatment.
	ArbWeighted
)

// Options configures a disassembly run.
type Options struct {
	// Serial keeps the whole run on the calling goroutine: the decode
	// table is filled in one pass instead of two concurrent halves, and
	// inference runs after the two walks instead of beside them. The
	// output is identical either way; the knob exists for benchmarking
	// and debugging.
	Serial bool
	// Arbitration selects two-way (default) or weighted three-way
	// disambiguation.
	Arbitration Arbitration
	// Trace receives per-stage spans and classification metrics; nil
	// disables instrumentation.
	Trace *obs.Trace
	// Inject enables deterministic fault injection (disassembler
	// disagreement, truncated linear decode, vetoed inference
	// demotions); nil disables it.
	Inject *fault.Injector
	// Arch selects the ISA to disassemble under; nil means the default
	// (ZVM-32). All three disassemblers and the aggregation use it.
	Arch isa.Arch
}

// halves runs fn over [0, n) in two halves split on a multiple of 64,
// so that they write disjoint words of a bitset, the second half on its
// own goroutine; serial runs it in one call.
func halves(n int, serial bool, fn func(lo, hi int)) {
	if serial {
		fn(0, n)
		return
	}
	half := n / 2 &^ 63
	done := make(chan struct{})
	go func() {
		fn(half, n)
		close(done)
	}()
	fn(0, half)
	<-done
}

// DisassembleOpts decodes bin's text into one table, runs the
// disassemblers over it and aggregates their views. The concurrent
// default and opts.Serial produce the same Aggregated value: the table
// is the same whichever goroutine fills which half, the disassemblers
// only read it, and aggregation begins only after every vote is in.
func DisassembleOpts(bin *binfmt.Binary, opts Options) (Aggregated, error) {
	tr := opts.Trace
	text := bin.Text()
	if text == nil {
		return Aggregated{}, fmt.Errorf("disasm: binary has no text segment")
	}
	n := len(text.Data)

	sp := tr.Start("decode")
	tab := isa.NewDecodeTable(opts.Arch, text.Data, text.VAddr)
	halves(n, opts.Serial, tab.Fill)
	tab.Index()
	halves(n, opts.Serial, tab.Store)
	sp.End()

	// The inference disassembler is the third vote under weighted
	// arbitration. It only reads the table, so the concurrent mode runs
	// it on its own goroutine beside the two walks; the detached span is
	// created here and ended by the worker (obs's concurrent-span
	// pattern).
	weighted := opts.Arbitration == ArbWeighted
	var inf *infer.Result
	var wg sync.WaitGroup
	if weighted && !opts.Serial {
		infSp := tr.StartDetached("inference")
		wg.Add(1)
		go func() {
			defer wg.Done()
			inf = infer.Analyze(bin, tab)
			infSp.End()
		}()
	}
	sp = tr.Start("linear-sweep")
	lin := LinearSweep(tab)
	sp.End()
	sp = tr.Start("recursive-traversal")
	rec := RecursiveTraversal(bin, tab, opts.Inject)
	sp.End()
	if weighted && opts.Serial {
		sp = tr.Start("inference")
		inf = infer.Analyze(bin, tab)
		sp.End()
	}
	wg.Wait()

	// Injected truncation: the linear sweep "stops decoding" at a seeded
	// cut point, as if the sweep hit an undecodable tail. Bytes past the
	// cut lose their linear Code claim (their decoded instructions are
	// kept out of the ambiguous set by the class check in aggregateCore),
	// so recursive coverage alone decides — a strict reduction in
	// evidence that aggregation must absorb conservatively.
	if inj := opts.Inject; inj.Armed(fault.DisasmTruncate) && n > 0 &&
		inj.Fires(fault.DisasmTruncate, text.VAddr) {
		for off := inj.Pick(fault.DisasmTruncate, text.VAddr, n); off < n; off++ {
			lin.Code.Clear(off)
		}
	}

	sp = tr.Start("disambiguate")
	agg := aggregateCore(tab, lin, rec)
	if inf != nil {
		applyArbitration(&agg, tab, inf, opts.Inject)
	}
	finishAggregate(&agg, text.VAddr, n)
	sp.End()
	if tr.Enabled() && inf != nil {
		st := inf.Stats()
		tr.SetGauge("infer.candidates", int64(st.Candidates))
		tr.SetGauge("infer.strong-starts", int64(st.StrongStarts))
		tr.SetGauge("infer.fact-bytes", int64(st.FactBytes))
		tr.SetGauge("infer.nonviable", int64(st.Nonviable))
		tr.SetGauge("infer.raised", int64(st.Raised))
		tr.SetGauge("infer.iterations", int64(st.Iterations))
		tr.Add("disasm.arb.demoted", int64(agg.Demoted))
		tr.Add("disasm.arb.disputed", int64(agg.Disputed))
	}
	if tr.Enabled() {
		code, ambig := agg.Code.Count(), agg.Ambig.Count()
		tr.SetGauge("disasm.bytes.code", int64(code))
		tr.SetGauge("disasm.bytes.data", int64(n-code-ambig))
		tr.SetGauge("disasm.bytes.ambiguous", int64(ambig))
		tr.Add("disasm.insts", int64(agg.Insts.Len()))
		tr.Add("disasm.ambig-insts", int64(agg.AmbigInsts.Len()))
		tr.Add("disasm.fixed-ranges", int64(len(agg.Fixed)))
		tr.Add("disasm.warnings", int64(len(agg.Warnings)))
	}
	return agg, nil
}

// Package disasm disassembles binaries under an isa.Arch (ZVM-32 or
// ZVM-64; Options.Arch, nil meaning ZVM-32) with two independent
// strategies — a linear sweep (objdump-like) and a recursive traversal
// (IDA-like) — and aggregates their output using the paper's four-case
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
// The two disassemblers are independent until aggregation, so the
// pipeline runs them concurrently by default (Options.Serial forces the
// back-to-back order for comparison); the merged Aggregated view is
// byte-identical either way because aggregation only starts after both
// have finished.
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

// Class classifies one byte of the text segment.
type Class uint8

// Byte classifications.
const (
	Unknown Class = iota // not reached / not decoded
	Code                 // part of a provably reached instruction
	Data                 // conclusively data (does not decode)
	Ambig                // decodes, but not provably reached: code AND data
)

// Result is the output of a single disassembler.
type Result struct {
	// Insts maps instruction start addresses to decoded instructions.
	Insts *InstMap
	// Weak maps addresses decoded only from address-shaped hints (lea
	// targets, immediates that look like code pointers). Such bytes
	// might be data — a jump table is indistinguishable from code at a
	// lea target — so they are never relocated: the aggregator treats
	// them as code AND data (paper case 3), and CFG construction uses
	// their decodes only to pin targets conservatively.
	Weak *InstMap
	// Classes classifies every byte of text (indexed from text base).
	Classes []Class
}

// LinearSweep decodes text (based at base) under arch from its first
// byte onward, resynchronizing after undecodable bytes the way objdump
// -D works: at the next byte on ZVM-32, at the next aligned address on
// fixed-width ISAs, whose misaligned starts can never be fetched. nil
// means the default ISA.
func LinearSweep(text []byte, base uint32, arch isa.Arch) Result {
	res := Result{
		Insts:   NewInstMap(base, len(text)),
		Classes: make([]Class, len(text)),
	}
	linearSweepInto(&res, text, base, isa.Of(arch))
	return res
}

// linearSweepInto runs the sweep into pre-sized result buffers.
func linearSweepInto(res *Result, text []byte, base uint32, arch isa.Arch) {
	step := int(arch.Align())
	off := 0
	for off < len(text) {
		in, err := arch.Decode(text[off:], base+uint32(off))
		if err != nil {
			for i := 0; i < step && off+i < len(text); i++ {
				res.Classes[off+i] = Data
			}
			off += step
			continue
		}
		n := arch.InstLen(in)
		res.Insts.Put(base+uint32(off), in)
		for i := 0; i < n; i++ {
			res.Classes[off+i] = Code
		}
		off += n
	}
}

// visit flags for the recursive traversal, one byte per text offset.
const (
	visitedStrong uint8 = 1 << iota
	visitedWeak
)

// recState is the recursive traversal's working state: dense visited
// flags plus the two worklist tiers. It lives in the scratch pool.
type recState struct {
	visited      []uint8
	strong, weak []uint32
}

// RecursiveTraversal follows control flow from every known entry point.
// It distinguishes two tiers of confidence:
//
//   - Strong seeds — the program entry, exported symbols, and code
//     pointers discovered by scanning data segments — plus everything
//     reachable from them through fallthroughs and direct branches, are
//     relocatable code (Result.Insts).
//   - Weak seeds — lea targets and address-shaped absolute immediates —
//     plus their flow, are decoded into Result.Weak but NOT classified
//     as code: a lea may just as well name a jump table or other data
//     embedded in text, and mislabeling data as relocatable code is the
//     one unrecoverable failure mode (paper case 4). Weak bytes stay at
//     their original addresses.
//
// Decoding runs under arch (nil means the default ISA).
func RecursiveTraversal(bin *binfmt.Binary, arch isa.Arch) Result {
	text := bin.Text()
	res := Result{
		Insts:   NewInstMap(text.VAddr, len(text.Data)),
		Weak:    NewInstMap(text.VAddr, len(text.Data)),
		Classes: make([]Class, len(text.Data)),
	}
	st := &recState{visited: make([]uint8, len(text.Data))}
	recursiveInto(&res, bin, st, nil, isa.Of(arch))
	return res
}

// recursiveInto runs the traversal into pre-sized result buffers. A
// non-nil injector with DisasmDisagree armed demotes seeded data-scan
// pointers from the strong tier to the weak tier: the functions they
// reach become "decode but are not provably reached", which downstream
// phases must handle with the paper's case-3 policy (bytes fixed in
// place, targets pinned via the ambiguous set).
func recursiveInto(res *Result, bin *binfmt.Binary, st *recState, inj *fault.Injector, arch isa.Arch) {
	text := bin.Text()
	inText := func(a uint32) bool { return text.Contains(a) }

	seedStrong := func(a uint32) {
		if inText(a) {
			st.strong = append(st.strong, a)
		}
	}
	seedWeak := func(a uint32) {
		if inText(a) {
			st.weak = append(st.weak, a)
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

	// visit decodes one address, recording flow into the given tier's
	// worklist; weak traversal never overrides strong coverage.
	step := func(addr uint32, isStrong bool) {
		off := addr - text.VAddr
		in, err := arch.Decode(text.Data[off:], addr)
		if err != nil {
			return // a supposed entry that does not decode: leave unknown
		}
		flow := seedWeak
		if isStrong {
			res.Insts.Put(addr, in)
			for i := 0; i < arch.InstLen(in); i++ {
				res.Classes[int(off)+i] = Code
			}
			flow = seedStrong
		} else {
			res.Weak.Put(addr, in)
		}
		if in.HasFallthrough() {
			flow(addr + uint32(arch.InstLen(in)))
		}
		if t, ok := arch.TargetAddr(in, addr); ok {
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
	for len(st.strong) > 0 {
		addr := st.strong[len(st.strong)-1]
		st.strong = st.strong[:len(st.strong)-1]
		if !inText(addr) {
			continue
		}
		off := addr - text.VAddr
		if st.visited[off]&visitedStrong != 0 {
			continue
		}
		st.visited[off] |= visitedStrong
		step(addr, true)
	}
	for len(st.weak) > 0 {
		addr := st.weak[len(st.weak)-1]
		st.weak = st.weak[:len(st.weak)-1]
		if !inText(addr) {
			continue
		}
		off := addr - text.VAddr
		if st.visited[off]&(visitedWeak|visitedStrong) != 0 {
			continue
		}
		st.visited[off] |= visitedWeak
		step(addr, false)
	}
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
	// Classes is the final per-byte classification.
	Classes []Class
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
// policy into the per-byte classification and the ambiguous instruction
// set. The dense instruction maps iterate in address order, so both come
// out deterministic. Fixed ranges and warnings are derived afterwards by
// finishAggregate, so an arbitration pass can prune the ambiguous set
// in between.
func aggregateCore(bin *binfmt.Binary, linear, recursive Result, arch isa.Arch) Aggregated {
	text := bin.Text()
	n := len(text.Data)
	agg := Aggregated{
		Insts:      recursive.Insts,
		AmbigInsts: NewInstMap(text.VAddr, n),
		Classes:    make([]Class, n),
		Arch:       arch,
	}
	// Case 1: recursive coverage is authoritative code.
	copy(agg.Classes, recursive.Classes)

	// Remaining bytes: ambiguous if the linear sweep decoded them,
	// conclusive data otherwise.
	for i := 0; i < n; i++ {
		if agg.Classes[i] == Code {
			continue
		}
		if linear.Classes[i] == Code {
			agg.Classes[i] = Ambig
		} else {
			agg.Classes[i] = Data
		}
	}
	// Instructions whose linear decode starts inside a non-code byte are
	// candidates for "both" handling (case 3).
	linear.Insts.All(func(addr uint32, in isa.Inst) bool {
		off := addr - text.VAddr
		if agg.Classes[off] == Ambig {
			agg.AmbigInsts.Put(addr, in)
			if in.IsDirectBranch() {
				agg.warnCands = append(agg.warnCands, addr)
			}
		}
		return true
	})
	// Weak recursive decodes (lea targets and address immediates) join
	// the ambiguous set: they are plausible entry-aligned decodes, so
	// CFG construction should pin their targets, but their bytes stay
	// fixed in place. They also upgrade their bytes to Ambig so fixed
	// ranges cover them even where the linear sweep misaligned.
	recursive.Weak.All(func(addr uint32, in isa.Inst) bool {
		off := addr - text.VAddr
		if agg.Classes[off] == Code {
			return true
		}
		agg.AmbigInsts.Put(addr, in)
		for i := 0; i < arch.InstLen(in) && int(off)+i < n; i++ {
			if agg.Classes[int(off)+i] != Code {
				agg.Classes[int(off)+i] = Ambig
			}
		}
		return true
	})
	return agg
}

// finishAggregate derives the outputs that depend on the final
// ambiguous set: the case-4 warnings (ascending order, survivors of
// any arbitration pruning) and the fixed ranges (maximal runs of
// Data/Ambig bytes).
func finishAggregate(agg *Aggregated, bin *binfmt.Binary) {
	text := bin.Text()
	n := len(text.Data)
	for _, addr := range agg.warnCands {
		in, ok := agg.AmbigInsts.Get(addr)
		if !ok {
			continue // demoted by arbitration
		}
		agg.Warnings = append(agg.Warnings, fmt.Sprintf(
			"disasm: ambiguous bytes at %#x decode to %s; treating as code and data",
			addr, in.String()))
	}
	var fixed []ir.Range
	i := 0
	for i < n {
		if agg.Classes[i] == Code {
			i++
			continue
		}
		j := i
		for j < n && agg.Classes[j] != Code {
			j++
		}
		fixed = append(fixed, ir.Range{
			Start: text.VAddr + uint32(i),
			End:   text.VAddr + uint32(j),
		})
		i = j
	}
	agg.Fixed = ir.MergeRanges(fixed)
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
func applyArbitration(agg *Aggregated, bin *binfmt.Binary, res *infer.Result, inj *fault.Injector) {
	text := bin.Text()
	n := len(text.Data)
	const (
		coverKept uint8 = 1 << iota
		coverDemoted
	)
	arch := isa.Of(agg.Arch)
	cover := make([]uint8, n)
	var demote []uint32
	agg.AmbigInsts.All(func(addr uint32, in isa.Inst) bool {
		off := int(addr - text.VAddr)
		verdict, _ := res.Verdict(addr, arch.InstLen(in))
		bit := coverKept
		if verdict == infer.VerdictData {
			if inj.Fires(fault.InferRuleDisagree, addr) {
				// Injected rule disagreement: the demotion is vetoed and
				// the candidate keeps its conservative pin treatment.
				agg.Disputed++
			} else {
				demote = append(demote, addr)
				bit = coverDemoted
			}
		}
		for i := 0; i < arch.InstLen(in) && off+i < n; i++ {
			cover[off+i] |= bit
		}
		return true
	})
	for _, addr := range demote {
		agg.AmbigInsts.Delete(addr)
	}
	agg.Demoted = len(demote)
	for i := 0; i < n; i++ {
		if agg.Classes[i] == Ambig && cover[i]&coverDemoted != 0 && cover[i]&coverKept == 0 {
			agg.Classes[i] = Data
		}
	}
}

// scratch holds the per-disassembly buffers that do not survive into
// the Aggregated result: the whole linear-sweep view, the weak tier,
// the recursive class array, and the traversal state. Pooling them
// keeps the hot rewrite path on a handful of allocations per binary.
type scratch struct {
	linear Result
	rec    recState
	weak   *InstMap
	recCls []Class
}

var scratchPool = sync.Pool{
	New: func() any {
		return &scratch{
			linear: Result{Insts: &InstMap{}},
			weak:   &InstMap{},
		}
	},
}

// grow reslices b to n bytes, reallocating only when the pooled backing
// array is too small.
func grow[T Class | uint8](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	b = b[:n]
	clear(b)
	return b
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
	// Serial forces the disassemblers to run back-to-back on the
	// calling goroutine instead of concurrently. The output is identical
	// either way; the knob exists for benchmarking and debugging.
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

// Disassemble runs both disassemblers on bin and aggregates the result.
func Disassemble(bin *binfmt.Binary) (Aggregated, error) {
	return DisassembleOpts(bin, Options{})
}

// DisassembleOpts runs the two disassemblers — concurrently unless
// opts.Serial — and aggregates their views. Both modes produce the same
// Aggregated value: the disassemblers share no state, and aggregation
// begins only after both complete.
func DisassembleOpts(bin *binfmt.Binary, opts Options) (Aggregated, error) {
	tr := opts.Trace
	arch := isa.Of(opts.Arch)
	text := bin.Text()
	if text == nil {
		return Aggregated{}, fmt.Errorf("disasm: binary has no text segment")
	}
	n := len(text.Data)

	sc := scratchPool.Get().(*scratch)
	sc.linear.Insts.reset(text.VAddr, n)
	sc.linear.Classes = grow(sc.linear.Classes, n)
	sc.weak.reset(text.VAddr, n)
	sc.recCls = grow(sc.recCls, n)
	sc.rec.visited = grow(sc.rec.visited, n)
	sc.rec.strong = sc.rec.strong[:0]
	sc.rec.weak = sc.rec.weak[:0]

	lin := sc.linear
	// The recursive result's strong instructions become Aggregated.Insts
	// and escape to the caller, so that map is always freshly allocated;
	// the weak tier and class array are pooled scratch.
	rec := Result{
		Insts:   NewInstMap(text.VAddr, n),
		Weak:    sc.weak,
		Classes: sc.recCls,
	}

	// The inference disassembler is the third, independent vote under
	// weighted arbitration; it shares no state with the other two, so
	// the concurrent mode runs all three in parallel.
	var inf *infer.Result

	if opts.Serial {
		sp := tr.Start("linear-sweep")
		linearSweepInto(&lin, text.Data, text.VAddr, arch)
		sp.End()
		sp = tr.Start("recursive-traversal")
		recursiveInto(&rec, bin, &sc.rec, opts.Inject, arch)
		sp.End()
		if opts.Arbitration == ArbWeighted {
			sp = tr.Start("inference")
			inf = infer.Analyze(bin, arch)
			sp.End()
		}
	} else {
		// The spans are created detached on this goroutine — in a
		// deterministic order, attached under the currently open phase —
		// and ended by the workers (obs documents this as the
		// concurrent-span pattern).
		linSp := tr.StartDetached("linear-sweep")
		recSp := tr.StartDetached("recursive-traversal")
		var infSp *obs.Span
		if opts.Arbitration == ArbWeighted {
			infSp = tr.StartDetached("inference")
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			linearSweepInto(&lin, text.Data, text.VAddr, arch)
			linSp.End()
		}()
		if opts.Arbitration == ArbWeighted {
			wg.Add(1)
			go func() {
				defer wg.Done()
				inf = infer.Analyze(bin, arch)
				infSp.End()
			}()
		}
		recursiveInto(&rec, bin, &sc.rec, opts.Inject, arch)
		recSp.End()
		wg.Wait()
	}

	// Injected truncation: the linear sweep "stops decoding" at a seeded
	// cut point, as if the sweep hit an undecodable tail. Bytes past the
	// cut lose their linear Code claim (their decoded instructions are
	// kept out of the ambiguous set by the class check in Aggregate), so
	// recursive coverage alone decides — a strict reduction in evidence
	// that aggregation must absorb conservatively.
	if inj := opts.Inject; inj.Armed(fault.DisasmTruncate) && n > 0 &&
		inj.Fires(fault.DisasmTruncate, text.VAddr) {
		cut := inj.Pick(fault.DisasmTruncate, text.VAddr, n)
		for off := cut; off < n; off++ {
			if lin.Classes[off] == Code {
				lin.Classes[off] = Data
			}
		}
	}

	sp := tr.Start("disambiguate")
	agg := aggregateCore(bin, lin, rec, arch)
	if opts.Arbitration == ArbWeighted && inf != nil {
		applyArbitration(&agg, bin, inf, opts.Inject)
	}
	finishAggregate(&agg, bin)
	sp.End()
	scratchPool.Put(sc)
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
		var code, data, ambig int64
		for _, c := range agg.Classes {
			switch c {
			case Code:
				code++
			case Data:
				data++
			case Ambig:
				ambig++
			}
		}
		tr.SetGauge("disasm.bytes.code", code)
		tr.SetGauge("disasm.bytes.data", data)
		tr.SetGauge("disasm.bytes.ambiguous", ambig)
		tr.Add("disasm.insts", int64(agg.Insts.Len()))
		tr.Add("disasm.ambig-insts", int64(agg.AmbigInsts.Len()))
		tr.Add("disasm.fixed-ranges", int64(len(agg.Fixed)))
		tr.Add("disasm.warnings", int64(len(agg.Warnings)))
	}
	return agg, nil
}

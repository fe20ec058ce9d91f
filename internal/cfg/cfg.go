// Package cfg constructs the logical IR — control-flow links and pinned
// addresses — from aggregated disassembly. This phase implements the
// paper's IR-construction rules:
//
//   - Direct branches become logical links to target instruction nodes
//     (the mandatory address-decoupling the paper performs so that
//     instructions can be placed anywhere).
//   - PC-relative address formation (lea) of a code location becomes a
//     logical link that reassembly materializes as an absolute address.
//   - PC-relative loads keep absolute targets; loads that point into
//     relocatable code force those bytes to additionally stay fixed
//     (paper case 2: bytes treated as both code and data).
//   - Pinned-address selection is conservative: P must contain every
//     address the program can reach indirectly at run time. Pins come
//     from the entry point, exports, code pointers found by scanning
//     data (jump tables, function-pointer tables), code-pointer-shaped
//     absolute immediates, and branch targets of ambiguous regions.
//
// The pointer and operand scans are plain serial loops: sharding them
// across workers made no measurable difference on the library-sized
// input (EXPERIMENTS.md, "Serial CFG scans").
package cfg

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"zipr/internal/binfmt"
	"zipr/internal/disasm"
	"zipr/internal/fault"
	"zipr/internal/ir"
	"zipr/internal/isa"
	"zipr/internal/obs"
	"zipr/internal/zerr"
)

// Build lifts the aggregated disassembly of bin into a logical IR
// program with pinned addresses.
func Build(bin *binfmt.Binary, agg disasm.Aggregated) (*ir.Program, error) {
	return BuildOpts(bin, agg, Options{})
}

// Options configures IR construction.
type Options struct {
	// Trace receives per-stage spans and pin-provenance counters; nil
	// disables instrumentation.
	Trace *obs.Trace
	// Inject enables deterministic fault injection (bogus pin floods,
	// losing the entry point's decode); nil disables it.
	Inject *fault.Injector
}

// collectTextPtrs scans data for stride-spaced little-endian words that
// point into text and returns them in scan order.
func collectTextPtrs(data []byte, stride int, text *binfmt.Segment) []uint32 {
	var out []uint32
	for off := 0; off+4 <= len(data); off += stride {
		if v := binary.LittleEndian.Uint32(data[off:]); text.Contains(v) {
			out = append(out, v)
		}
	}
	return out
}

// BuildOpts is Build with full options.
func BuildOpts(bin *binfmt.Binary, agg disasm.Aggregated, opts Options) (*ir.Program, error) {
	tr := opts.Trace
	inj := opts.Inject
	sp := tr.Start("lift")
	p := ir.NewProgram(bin)
	p.Arch = agg.Arch
	arch := p.ISA()
	// Merged once here, and re-merged whenever ranges are added below,
	// so inFixed can binary-search it.
	p.Fixed = ir.MergeRanges(agg.Fixed)
	p.Warnings = append(p.Warnings, agg.Warnings...)
	text := bin.Text()

	// Create nodes in address order for deterministic IDs; the dense
	// instruction map iterates ascending, so no collect-and-sort pass.
	// The decoded count is known, so every decoded node comes from one
	// slab.
	p.Reserve(agg.Insts.Len())
	agg.Insts.All(func(a uint32, in isa.Inst) bool {
		p.AddOrig(a, in)
		return true
	})
	decoded := p.Insts

	inFixed := func(a uint32) bool { return ir.InRanges(p.Fixed, a) }
	var extraFixed []ir.Range

	// Link fallthroughs and targets. decoded holds the decoded nodes in
	// address order (synthetic nodes are appended to p.Insts after them),
	// so the fallthrough is usually the next node; the address index is
	// consulted only when the next decode starts elsewhere (overlapping
	// decodes).
	for i, node := range decoded {
		a := node.OrigAddr
		in := node.Inst
		next := a + uint32(arch.InstLen(in))
		if in.HasFallthrough() {
			if i+1 < len(decoded) && decoded[i+1].OrigAddr == next {
				node.Fallthrough = decoded[i+1]
			} else if ft := p.At(next); ft != nil {
				node.Fallthrough = ft
			} else if text.Contains(next) && inFixed(next) {
				// Execution falls into a fixed region, which keeps its
				// original address: continue there with a synthetic jump.
				p.Warnf("cfg: %#x falls through into fixed bytes at %#x", a, next)
				j := p.NewInst(isa.Inst{Op: isa.OpJmp32})
				j.AbsTarget = next
				node.Fallthrough = j
			} else {
				p.Warnf("cfg: %#x falls through to undecoded address %#x", a, next)
				node.Fallthrough = p.NewInst(isa.Inst{Op: isa.OpHlt})
			}
		}
		t, hasTarget := arch.TargetAddr(in, a)
		if !hasTarget {
			continue
		}
		switch in.Op {
		case isa.OpLoadPC:
			node.AbsTarget = t
			if p.At(t) != nil && !inFixed(t) {
				// Data read from relocatable code bytes: keep the original
				// bytes in place too (case 2 "both" handling).
				p.Warnf("cfg: loadpc at %#x reads relocatable code at %#x; fixing those bytes", a, t)
				extraFixed = append(extraFixed, ir.Range{Start: t, End: t + 4})
			}
		case isa.OpLea:
			if tn := p.At(t); tn != nil {
				node.Target = tn // materialized to the rewritten address
			} else {
				node.AbsTarget = t // data or fixed bytes: address unchanged
			}
		default: // direct branches: jmp, jcc, call
			if tn := p.At(t); tn != nil {
				node.Target = tn
			} else if text.Contains(t) && !inFixed(t) {
				p.Warnf("cfg: branch at %#x targets undecoded text %#x; keeping absolute", a, t)
				node.AbsTarget = t
			} else {
				node.AbsTarget = t
			}
		}
	}
	p.Fixed = ir.MergeRanges(append(p.Fixed, extraFixed...))
	sp.End()

	sp = tr.Start("pin-analysis")
	// recordTarget notes an address the program may reach indirectly:
	// relocatable instructions get pinned (a reference is planted at
	// their original address); addresses inside fixed ranges are
	// recorded as legal entries (the bytes there never move).
	var pinsBy map[string]int64
	if tr.Enabled() {
		pinsBy = make(map[string]int64)
	}
	pinNode := func(a uint32, why string) {
		if n := p.At(a); n != nil {
			if !n.Pinned {
				n.Pinned = true
				if pinsBy != nil {
					pinsBy[why]++
				}
			}
			return
		}
		if text.Contains(a) && inFixed(a) {
			p.FixedEntries = append(p.FixedEntries, a)
		}
	}

	// Entry and exports.
	if bin.Type == binfmt.Exec {
		e := p.At(bin.Entry)
		ok := e != nil
		injected := ok && inj.Fires(fault.EntryLost, bin.Entry)
		if injected {
			// Injected analysis failure: pretend the entry never decoded.
			// This is the canonical unrecoverable input — there is no
			// conservative fallback for a program whose entry point the
			// analysis cannot see — so the phase must fail closed.
			ok = false
		}
		switch {
		case ok:
			p.Entry = e
			pinNode(bin.Entry, "entry")
		case injected:
			return nil, fmt.Errorf("cfg: entry %#x is not a decoded instruction (%w)", bin.Entry, zerr.ErrInjected)
		default:
			return nil, fmt.Errorf("cfg: entry %#x is not a decoded instruction", bin.Entry)
		}
	}
	for _, e := range bin.Exports {
		pinNode(e.Addr, "export")
	}

	// Data scan: aligned words in data segments that point into text
	// (everything else is a no-op pin), pinned in scan order.
	for si := range bin.Segments {
		seg := &bin.Segments[si]
		if seg.Kind != binfmt.Data {
			continue
		}
		for _, v := range collectTextPtrs(seg.Data, 4, text) {
			pinNode(v, "data pointer")
		}
	}
	// Fixed text ranges (jump tables and pointers embedded in text):
	// scan every byte offset, conservatively.
	for _, r := range p.Fixed {
		sub := text.Data[r.Start-text.VAddr : r.End-text.VAddr]
		for _, v := range collectTextPtrs(sub, 1, text) {
			pinNode(v, "in-text pointer")
		}
	}
	// Absolute immediates that look like code addresses: the paper keeps
	// such values unchanged and pins the address they name, so the value
	// works both as a number and as an indirect target. Lea instructions
	// that kept an absolute target (possible data, left in place) are
	// likewise potential indirect-branch targets.
	for _, node := range p.Insts {
		switch node.Inst.Op {
		case isa.OpMovI, isa.OpPushI32:
			pinNode(uint32(node.Inst.Imm), "immediate")
		case isa.OpLea:
			if node.AbsTarget != 0 {
				pinNode(node.AbsTarget, "lea target")
			}
		}
	}
	// Direct branch targets of instructions decoded in ambiguous ranges,
	// plus the return sites of calls there: if those bytes really are
	// code, they execute in place and their control flow must keep
	// working (including through CFI checks). The dense map iterates in
	// address order, so this pass is deterministic too.
	agg.AmbigInsts.All(func(a uint32, in isa.Inst) bool {
		if t, ok := arch.TargetAddr(in, a); ok && in.Op != isa.OpLoadPC {
			pinNode(t, "ambiguous-region branch")
		}
		if in.IsCall() {
			pinNode(a+uint32(arch.InstLen(in)), "ambiguous-region return site")
		}
		switch in.Op {
		case isa.OpMovI, isa.OpPushI32:
			pinNode(uint32(in.Imm), "ambiguous-region immediate")
		}
		return true
	})

	// Injected pin flood: pin-analysis "discovers" bogus indirect-branch
	// targets at decoded instructions, in seeded clusters so dense runs
	// stress chain packing and sled escalation downstream. Extra pins are
	// always *safe* over-approximation (a pin only plants a reference at
	// an address the instruction already owns); what this exercises is
	// the layout's ability to satisfy them or fail typed.
	if inj.Armed(fault.PinFlood) {
		for i, node := range decoded {
			a := node.OrigAddr
			if !inj.Fires(fault.PinFlood, a) {
				continue
			}
			run := 1 + inj.Pick(fault.PinFlood, a, 6)
			for j := i; j < len(decoded) && j < i+run; j++ {
				pinNode(decoded[j].OrigAddr, "fault-injected")
			}
		}
	}

	// Deduplicate fixed-entry records (the scans revisit addresses).
	if len(p.FixedEntries) > 1 {
		sort.Slice(p.FixedEntries, func(i, j int) bool { return p.FixedEntries[i] < p.FixedEntries[j] })
		out := p.FixedEntries[:1]
		for _, a := range p.FixedEntries[1:] {
			if a != out[len(out)-1] {
				out = append(out, a)
			}
		}
		p.FixedEntries = out
	}
	sp.End()

	sp = tr.Start("partition-functions")
	buildFunctions(p)
	sp.End()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if tr.Enabled() {
		var pinned int64
		for _, n := range p.Insts {
			if n.Pinned {
				pinned++
			}
		}
		tr.Add("cfg.insts", int64(len(p.Insts)))
		tr.Add("cfg.pins", pinned)
		tr.Add("cfg.fixed-entries", int64(len(p.FixedEntries)))
		tr.Add("cfg.functions", int64(len(p.Functions)))
		for why, n := range pinsBy {
			tr.Add("cfg.pins."+strings.ReplaceAll(why, " ", "-"), n)
		}
	}
	return p, nil
}

// buildFunctions partitions instructions into functions for the
// transform API: entries are the program entry, exports, direct call
// targets and pinned instructions; bodies are flooded over fallthrough
// and non-call branch links. Every body is carved from one backing
// slice, capped so that a later append copies instead of overwriting
// the next function's instructions.
func buildFunctions(p *ir.Program) {
	// Entry marks by instruction ID; only the entry and exports carry a
	// name of their own, the rest are named sub_<addr> when carved.
	isEntry := isa.NewBitset(int(p.MaxID()) + 1)
	var entries []*ir.Instruction
	addEntry := func(n *ir.Instruction) {
		if !isEntry.Has(int(n.ID)) {
			isEntry.Set(int(n.ID))
			entries = append(entries, n)
		}
	}
	named := map[int64]string{}
	if p.Entry != nil {
		addEntry(p.Entry)
		named[p.Entry.ID] = "main"
	}
	for _, e := range p.Bin.Exports {
		if n := p.At(e.Addr); n != nil {
			addEntry(n)
			named[n.ID] = e.Name
		}
	}
	for _, n := range p.Insts {
		if n.Inst.Op == isa.OpCall && n.Target != nil {
			addEntry(n.Target)
		}
		if n.Pinned {
			addEntry(n)
		}
	}
	// Deterministic order: by original address.
	sort.Slice(entries, func(i, j int) bool { return entries[i].OrigAddr < entries[j].OrigAddr })

	owned := isa.NewBitset(int(p.MaxID()) + 1)
	body := make([]*ir.Instruction, 0, len(p.Insts))
	fns := make([]ir.Function, 0, len(entries))
	p.Functions = make([]*ir.Function, 0, len(entries))
	var stack []*ir.Instruction
	for _, entry := range entries {
		start := len(body)
		stack = append(stack[:0], entry)
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if n == nil || owned.Has(int(n.ID)) {
				continue
			}
			if n != entry && isEntry.Has(int(n.ID)) {
				continue // belongs to its own function
			}
			owned.Set(int(n.ID))
			body = append(body, n)
			stack = append(stack, n.Fallthrough)
			if n.Inst.Op != isa.OpCall && n.Target != nil {
				stack = append(stack, n.Target)
			}
		}
		if len(body) == start {
			continue
		}
		name, ok := named[entry.ID]
		if !ok {
			name = "sub_" + strconv.FormatUint(uint64(entry.OrigAddr), 16)
		}
		fns = append(fns, ir.Function{Name: name, Entry: entry, Insts: body[start:len(body):len(body)]})
		p.Functions = append(p.Functions, &fns[len(fns)-1])
	}
}

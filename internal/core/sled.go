package core

import (
	"encoding/binary"
	"fmt"
	"sort"

	"zipr/internal/ir"
	"zipr/internal/isa"
)

// Sled support (paper §II-C2). When pinned addresses are too close
// together for even a 2-byte jump, the rewriter emits a run of
// PushI32Byte (0x68) opcodes terminated by four NopBytes (0x90): control
// entering at any 0x68 byte pushes one or more words derived from the
// bytes that follow and re-synchronizes in the nops, after which a jump
// reaches dispatch code that inspects the pushed word(s), drops them,
// and branches to the relocated target of the entry that was taken.

// sledEntry is one pinned entry point of a sled.
type sledEntry struct {
	offset int // 0x68-byte index within the sled span
	target *ir.Instruction
	words  []uint32 // pushed words, bottom of stack first (simulated)
}

// sledPlan is one sled covering a dense run of pinned addresses.
type sledPlan struct {
	start   uint32 // address of the first 0x68 byte
	span    int    // number of 0x68 bytes
	entries []sledEntry
}

// sledTailSize is the fixed overhead after the 0x68 run: four nops plus
// a 5-byte jump to the dispatch code.
const sledTailSize = 4 + 5

// size returns the total carved footprint of the sled.
func (s *sledPlan) size() int { return s.span + sledTailSize }

// simulateSledEntry computes the words pushed when control enters a sled
// of the given span at 0x68-offset k, bottom of stack first.
func simulateSledEntry(span, k int) []uint32 {
	bytes := make([]byte, span+4)
	for i := 0; i < span; i++ {
		bytes[i] = isa.PushI32Byte
	}
	for i := span; i < span+4; i++ {
		bytes[i] = isa.NopByte
	}
	var words []uint32
	pc := k
	for pc < span {
		words = append(words, binary.LittleEndian.Uint32(bytes[pc+1:pc+5]))
		pc += 5
	}
	return words
}

// sledBytes renders the sled body (0x68 run plus nops); the caller
// appends the 5-byte jump to dispatch.
func sledBytes(span int) []byte {
	out := make([]byte, span+4)
	for i := 0; i < span; i++ {
		out[i] = isa.PushI32Byte
	}
	for i := span; i < span+4; i++ {
		out[i] = isa.NopByte
	}
	return out
}

// sledWord68 is the "all push opcodes" window value that deep stack
// slots of long sleds contain.
const sledWord68 = 0x68686868

// dispatchRef records a jump slot inside generated dispatch code that
// must be patched to an instruction's final address.
type dispatchRef struct {
	off    int // offset of the 5-byte jmp within the dispatch code
	target *ir.Instruction
}

// emitter builds raw machine code with local label fixups, encoding
// through arch. The first encode error sticks and finish reports it.
type emitter struct {
	arch   isa.Arch
	buf    []byte
	err    error
	labels map[string]int
	fixups []struct {
		off   int // offset of the rel32 field
		label string
	}
}

func newEmitter(arch isa.Arch) *emitter {
	return &emitter{arch: arch, labels: map[string]int{}}
}

func (e *emitter) inst(in isa.Inst) {
	if e.err == nil {
		e.buf, e.err = e.arch.AppendEncode(e.buf, in)
	}
}

func (e *emitter) label(name string) {
	e.labels[name] = len(e.buf)
}

// jcc emits a long conditional jump to a local label.
func (e *emitter) jcc(cc isa.Cc, label string) {
	e.inst(isa.Inst{Op: isa.OpJcc32, Cc: cc})
	e.fixups = append(e.fixups, struct {
		off   int
		label string
	}{off: len(e.buf) - 4, label: label})
}

func (e *emitter) finish() ([]byte, error) {
	if e.err != nil {
		return nil, fmt.Errorf("core: dispatch encode: %w", e.err)
	}
	for _, f := range e.fixups {
		target, ok := e.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("core: dispatch label %q undefined", f.label)
		}
		disp := int32(target - (f.off + 4))
		binary.LittleEndian.PutUint32(e.buf[f.off:], uint32(disp))
	}
	return e.buf, nil
}

// genDispatch generates the dispatch routine for a sled. The routine is
// entered with the sled's pushed words on the stack; it identifies which
// entry was taken by the top word (and, for long sleds whose entries
// push identical prefixes, by probing deeper words), restores the stack,
// and jumps to the entry's relocated target through a patchable slot.
// All registers are preserved; flags are clobbered, matching the
// rewriter's documented assumption that flags are dead across indirect
// control transfers. The code is encoded through arch; sleds exist only
// on ISAs with SledsSupported (ZVM-32), whose rel32 branch layout the
// label fixups assume.
func genDispatch(arch isa.Arch, entries []sledEntry) ([]byte, []dispatchRef, error) {
	if len(entries) == 0 {
		return nil, nil, fmt.Errorf("core: sled with no entries")
	}
	// Group entries by their top-of-stack word.
	groups := map[uint32][]sledEntry{}
	for _, en := range entries {
		if len(en.words) == 0 {
			return nil, nil, fmt.Errorf("core: sled entry at offset %d pushes nothing", en.offset)
		}
		top := en.words[len(en.words)-1]
		groups[top] = append(groups[top], en)
	}
	tops := make([]uint32, 0, len(groups))
	for t := range groups {
		tops = append(tops, t)
	}
	sort.Slice(tops, func(i, j int) bool { return tops[i] < tops[j] })

	e := newEmitter(arch)
	var refs []dispatchRef

	// Prologue: save r0, fetch the top pushed word.
	e.inst(isa.Inst{Op: isa.OpPush, Rd: 0})
	e.inst(isa.Inst{Op: isa.OpLoad, Rd: 0, Rs: isa.SP, Imm: 4})
	for gi, top := range tops {
		e.inst(isa.Inst{Op: isa.OpCmpI, Rd: 0, Imm: int32(top)})
		e.jcc(isa.CcZ, fmt.Sprintf("group%d", gi))
	}
	// No known entry: the program jumped to a non-pinned sled byte.
	e.inst(isa.Inst{Op: isa.OpHlt})

	emitEpilogue := func(en sledEntry) {
		e.inst(isa.Inst{Op: isa.OpPop, Rd: 0}) // restore r0
		drop := int32(4 * len(en.words))
		if drop <= 127 {
			e.inst(isa.Inst{Op: isa.OpAddI8, Rd: isa.SP, Imm: drop})
		} else {
			e.inst(isa.Inst{Op: isa.OpAddI, Rd: isa.SP, Imm: drop})
		}
		refs = append(refs, dispatchRef{off: len(e.buf), target: en.target})
		e.inst(isa.Inst{Op: isa.OpJmp32}) // patched later
	}

	for gi, top := range tops {
		e.label(fmt.Sprintf("group%d", gi))
		group := groups[top]
		sort.Slice(group, func(i, j int) bool { return len(group[i].words) < len(group[j].words) })
		// Entries within a group differ only in push count; all their
		// deeper words are sledWord68. Probe depth m for each entry in
		// ascending push-count order: if the word there is NOT the all-
		// push pattern, the shorter entry was taken.
		for i := 0; i < len(group)-1; i++ {
			en := group[i]
			m := len(en.words)
			if len(group[i+1].words) == m {
				return nil, nil, fmt.Errorf("core: sled entries %d and %d indistinguishable",
					en.offset, group[i+1].offset)
			}
			e.inst(isa.Inst{Op: isa.OpLoad, Rd: 0, Rs: isa.SP, Imm: int32(4 + 4*m)})
			e.inst(isa.Inst{Op: isa.OpCmpI, Rd: 0, Imm: int32(uint32(sledWord68))})
			e.jcc(isa.CcZ, fmt.Sprintf("g%de%d_deeper", gi, i))
			emitEpilogue(en)
			e.label(fmt.Sprintf("g%de%d_deeper", gi, i))
		}
		emitEpilogue(group[len(group)-1])
	}
	code, err := e.finish()
	if err != nil {
		return nil, nil, err
	}
	return code, refs, nil
}

package isa

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ZVM-64: the fixed-width companion ISA. Every instruction is one or
// two little-endian 32-bit words ("64" names the doubled-word wide
// form); the machine model — registers, flags, memory, syscalls — is
// identical to ZVM-32, so the two ISAs share the logical Op set and the
// VM's execution semantics. What differs is the encoding regime:
//
//   - instructions are 4-byte aligned; decoding at a misaligned address
//     is an error (and an execution fault), as on ARM;
//   - direct branches (jmp/call/jcc) carry a 19-bit word displacement —
//     a reach of ±1 MiB — instead of ZVM-32's full rel32, so rewriting
//     must emit range-extension veneers where a reference jump or a
//     placed branch lands out of reach;
//   - there are no short (rel8) branch forms at all, hence no
//     constrained 2-byte references and no span-dependent chaining;
//   - the 0x68 push-sled trick is meaningless under fixed width (a
//     4-byte-aligned pin always has room for a full reference), so the
//     sled path is disabled.
//
// Narrow word layout (LE):
//
//	[op:8][rd:4][rs:4][imm16:16]            ALU / stack / imm8 forms
//	[op:8][cc:4][0:1][imm19:19]             direct branches (disp = imm19*4)
//
// Wide forms append a second word holding the full imm32 (pushes,
// reg-imm32 ALU, lea/loadpc, memory displacements); their imm16 field
// must be zero. All unused fields are reserved-zero: a nonzero reserved
// field decodes as ErrBadEncoding, which keeps the decoder canonical
// (exactly one encoding per instruction) and makes data words far less
// likely to alias valid code.
const (
	// ZVM64Reach is the direct-branch reach in bytes: displacements lie
	// in [-ZVM64Reach, ZVM64Reach-4].
	ZVM64Reach = 1 << 20
	// ZVM64MaxLen is the longest ZVM-64 encoding (one wide instruction).
	ZVM64MaxLen = 8
	// ZVM64Align is the instruction-address alignment.
	ZVM64Align = 4
)

// ZVM-64 decode errors (in addition to ErrTruncated/ErrBadOpcode/
// ErrBadCc shared with the variable-width codec).
var (
	// ErrMisaligned marks a decode at an address that is not a multiple
	// of the ISA's instruction alignment.
	ErrMisaligned = errors.New("isa: misaligned instruction address")
	// ErrBadEncoding marks a word whose reserved fields are nonzero or
	// whose immediate violates the form's canonical range.
	ErrBadEncoding = errors.New("isa: non-canonical encoding")
)

// zform classifies the ZVM-64 encoded shape of an operation.
type zform uint8

const (
	zNone     zform = iota + 1 // narrow, no operands
	zReg                       // narrow, rd
	zImm8                      // narrow, imm16 holding a sign-extended int8
	zRegImm8                   // narrow, rd + int8 immediate
	zRegReg                    // narrow, rd + rs
	zBranch                    // narrow, cc + imm19 word displacement
	zImm32                     // wide, imm32
	zRegImm32                  // wide, rd + imm32
	zRegRel32                  // wide, rd + rel32 (PC-relative, full reach)
	zMem                       // wide, rd + rs + disp32
)

// zvm64Form maps each logical Op to its ZVM-64 shape. OpJmp8/OpJcc8
// have no entry: the ISA has no short branch forms.
var zvm64Form = [opMax]zform{
	OpNop: zNone, OpHlt: zNone, OpRet: zNone, OpSyscall: zNone,
	OpPush: zReg, OpPop: zReg, OpJmpR: zReg, OpCallR: zReg,
	OpInc: zReg, OpDec: zReg, OpNot: zReg,
	OpPushI8: zImm8,
	OpAddI8:  zRegImm8, OpCmpI8: zRegImm8, OpShlI: zRegImm8, OpShrI: zRegImm8,
	OpAdd: zRegReg, OpSub: zRegReg, OpAnd: zRegReg, OpOr: zRegReg,
	OpXor: zRegReg, OpMul: zRegReg, OpDiv: zRegReg, OpMod: zRegReg,
	OpShl: zRegReg, OpShr: zRegReg, OpCmp: zRegReg, OpMov: zRegReg,
	OpJmp32: zBranch, OpCall: zBranch, OpJcc32: zBranch,
	OpPushI32: zImm32,
	OpMovI:    zRegImm32, OpAddI: zRegImm32, OpAndI: zRegImm32,
	OpOrI: zRegImm32, OpXorI: zRegImm32, OpCmpI: zRegImm32,
	OpLea: zRegRel32, OpLoadPC: zRegRel32,
	OpLoad: zMem, OpLoadB: zMem, OpStore: zMem, OpStoreB: zMem,
}

// zvm64Wide reports whether f takes a second imm32 word.
func zvm64Wide(f zform) bool {
	switch f {
	case zImm32, zRegImm32, zRegRel32, zMem:
		return true
	}
	return false
}

// zvm64OpByte gives each op its primary byte — the same values the
// variable-width encoding uses, so disassembly heuristics keyed on byte
// identity (and human familiarity with the opcode map) carry over.
// OpJcc32 reuses the 0x0F escape byte as a first-class opcode.
func zvm64OpByte(op Op) uint8 {
	if op == OpJcc32 {
		return Jcc32Prefix
	}
	return opTable[op].byte
}

// zvm64ByteToOp inverts zvm64OpByte over the ops ZVM-64 defines.
var zvm64ByteToOp = buildZVM64ByteToOp()

func buildZVM64ByteToOp() [256]Op {
	var t [256]Op
	for op := Op(1); op < opMax; op++ {
		if zvm64Form[op] == 0 {
			continue
		}
		t[zvm64OpByte(op)] = op
	}
	return t
}

// ZVM64BranchDispOK reports whether a ZVM-64 direct branch can encode
// the byte displacement disp: word-aligned and within ±1 MiB.
func ZVM64BranchDispOK(disp int64) bool {
	return disp%ZVM64Align == 0 && disp >= -ZVM64Reach && disp <= ZVM64Reach-ZVM64Align
}

// zvm64Arch implements Arch for the fixed-width ISA (pointer receivers,
// as zvm32Arch).
type zvm64Arch struct{}

func (*zvm64Arch) Name() string  { return "zvm64" }
func (*zvm64Arch) MaxLen() int   { return ZVM64MaxLen }
func (*zvm64Arch) Align() uint32 { return ZVM64Align }

func (*zvm64Arch) InstLen(in Inst) int {
	if !in.Op.Valid() {
		return 0
	}
	f := zvm64Form[in.Op]
	switch {
	case f == 0:
		return 0
	case zvm64Wide(f):
		return 8
	}
	return 4
}

func (a *zvm64Arch) AppendEncode(dst []byte, in Inst) ([]byte, error) {
	if !in.Op.Valid() {
		return dst, fmt.Errorf("%w: op %d", ErrBadOpcode, in.Op)
	}
	f := zvm64Form[in.Op]
	if f == 0 {
		return dst, fmt.Errorf("%w: %s has no zvm64 encoding", ErrBadOpcode, in.Op.Name())
	}
	if in.Rd >= NumRegs {
		return dst, fmt.Errorf("%w: r%d", ErrBadReg, in.Rd)
	}
	if in.Rs >= NumRegs {
		return dst, fmt.Errorf("%w: r%d", ErrBadReg, in.Rs)
	}
	w := uint32(zvm64OpByte(in.Op))
	switch f {
	case zNone, zImm32:
	case zReg, zRegImm8, zRegImm32, zRegRel32:
		w |= uint32(in.Rd) << 8
	case zRegReg, zMem:
		w |= uint32(in.Rd)<<8 | uint32(in.Rs)<<12
	case zBranch:
		cc := in.Cc
		if in.Op == OpJcc32 {
			if !ValidCc(cc) {
				return dst, fmt.Errorf("%w: %d", ErrBadCc, cc)
			}
			w |= uint32(cc) << 8
		} else if cc != 0 {
			return dst, fmt.Errorf("%w: condition on %s", ErrBadEncoding, in.Op.Name())
		}
		if !ZVM64BranchDispOK(int64(in.Imm)) {
			return dst, fmt.Errorf("isa: zvm64 branch displacement %d out of reach (±%d, word-aligned)", in.Imm, ZVM64Reach)
		}
		w |= (uint32(in.Imm/ZVM64Align) & 0x7FFFF) << 13
	}
	switch f {
	case zImm8, zRegImm8:
		if in.Imm < -128 || in.Imm > 127 {
			return dst, fmt.Errorf("isa: immediate %d out of int8 range for %s", in.Imm, in.Op.Name())
		}
		w |= uint32(uint16(int16(in.Imm))) << 16
	}
	var word [4]byte
	binary.LittleEndian.PutUint32(word[:], w)
	dst = append(dst, word[:]...)
	if zvm64Wide(f) {
		binary.LittleEndian.PutUint32(word[:], uint32(in.Imm))
		dst = append(dst, word[:]...)
	}
	return dst, nil
}

func (a *zvm64Arch) Encode(in Inst) ([]byte, error) {
	return a.AppendEncode(make([]byte, 0, ZVM64MaxLen), in)
}

func (a *zvm64Arch) Decode(b []byte, addr uint32) (Inst, error) {
	if addr%ZVM64Align != 0 {
		return Inst{}, fmt.Errorf("%w: %#x", ErrMisaligned, addr)
	}
	if len(b) < 4 {
		return Inst{}, ErrTruncated
	}
	w := binary.LittleEndian.Uint32(b)
	op := zvm64ByteToOp[byte(w)]
	if op == OpInvalid {
		return Inst{}, errBadOpcodeByte[byte(w)]
	}
	f := zvm64Form[op]
	in := Inst{Op: op}
	rd := uint8(w >> 8 & 0xF)
	rs := uint8(w >> 12 & 0xF)
	imm16 := int32(int16(w >> 16))
	reserved := func(ok bool) error {
		if ok {
			return nil
		}
		return fmt.Errorf("%w: %s word %08x has nonzero reserved bits", ErrBadEncoding, op.Name(), w)
	}
	switch f {
	case zNone:
		if err := reserved(w>>8 == 0); err != nil {
			return Inst{}, err
		}
	case zReg:
		in.Rd = rd
		if err := reserved(rs == 0 && imm16 == 0); err != nil {
			return Inst{}, err
		}
	case zImm8:
		in.Imm = imm16
		if err := reserved(rd == 0 && rs == 0); err != nil {
			return Inst{}, err
		}
		if imm16 < -128 || imm16 > 127 {
			return Inst{}, fmt.Errorf("%w: %s immediate %d outside int8", ErrBadEncoding, op.Name(), imm16)
		}
	case zRegImm8:
		in.Rd, in.Imm = rd, imm16
		if err := reserved(rs == 0); err != nil {
			return Inst{}, err
		}
		if imm16 < -128 || imm16 > 127 {
			return Inst{}, fmt.Errorf("%w: %s immediate %d outside int8", ErrBadEncoding, op.Name(), imm16)
		}
	case zRegReg:
		in.Rd, in.Rs = rd, rs
		if err := reserved(imm16 == 0); err != nil {
			return Inst{}, err
		}
	case zBranch:
		cc := Cc(w >> 8 & 0xF)
		if op == OpJcc32 {
			if !ValidCc(cc) {
				return Inst{}, errBadCcCode[cc]
			}
			in.Cc = cc
		} else if cc != 0 {
			return Inst{}, fmt.Errorf("%w: condition bits on %s", ErrBadEncoding, op.Name())
		}
		if w>>12&1 != 0 {
			return Inst{}, fmt.Errorf("%w: reserved branch bit set in %08x", ErrBadEncoding, w)
		}
		// imm19 word displacement, sign-extended, scaled to bytes.
		in.Imm = (int32(w) >> 13) * ZVM64Align
	case zImm32, zRegImm32, zRegRel32, zMem:
		switch f {
		case zImm32:
			if err := reserved(rd == 0 && rs == 0); err != nil {
				return Inst{}, err
			}
		case zRegImm32, zRegRel32:
			in.Rd = rd
			if err := reserved(rs == 0); err != nil {
				return Inst{}, err
			}
		case zMem:
			in.Rd, in.Rs = rd, rs
		}
		if err := reserved(imm16 == 0); err != nil {
			return Inst{}, err
		}
		if len(b) < 8 {
			return Inst{}, ErrTruncated
		}
		in.Imm = int32(binary.LittleEndian.Uint32(b[4:8]))
	}
	return in, nil
}

func (a *zvm64Arch) TargetAddr(in Inst, addr uint32) (uint32, bool) {
	switch in.Op {
	case OpJmp32, OpJcc32, OpCall, OpLea, OpLoadPC:
		return addr + uint32(a.InstLen(in)) + uint32(in.Imm), true
	}
	return 0, false
}

func (*zvm64Arch) RefLen() int                  { return 4 }
func (*zvm64Arch) ChainRefLen() int             { return 0 }
func (*zvm64Arch) SledsSupported() bool         { return false }
func (*zvm64Arch) BranchReach() uint32          { return ZVM64Reach }
func (*zvm64Arch) BranchDispOK(disp int64) bool { return ZVM64BranchDispOK(disp) }
func (*zvm64Arch) VeneerLen() int               { return 12 }

// VeneerBytes encodes the range-extension island: `pushi dest; ret`
// (12 bytes). The push/ret pair forwards control to any absolute
// address without clobbering a register, works for jumps, calls (the
// pushed return address stays below the veneer's transient word) and
// taken conditional branches alike, and is itself position-independent
// — the properties that let reassembly park one island anywhere within
// reach of a starved branch and share it between sites.
func (a *zvm64Arch) VeneerBytes(dest uint32) []byte {
	out := make([]byte, 0, 12)
	out, err := a.AppendEncode(out, Inst{Op: OpPushI32, Imm: int32(dest)})
	if err != nil {
		panic(err)
	}
	out, err = a.AppendEncode(out, Inst{Op: OpRet})
	if err != nil {
		panic(err)
	}
	return out
}

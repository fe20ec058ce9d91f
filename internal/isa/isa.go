// Package isa defines ZVM-32, the 32-bit virtual instruction set this
// repository rewrites. ZVM-32 is designed to present every difficulty the
// Zipr paper (DSN 2017) solves on x86: variable-length encodings (1-7
// bytes), span-dependent PC-relative branches with short (rel8) and long
// (rel32) forms, PC-relative address formation and loads, indirect jumps
// and calls, and a byte-level encoding that deliberately reuses x86's
// 0x68 (push imm32), 0x90 (nop) and 0xF4 (hlt) opcode values so that the
// paper's "sled" construction for dense references works byte-for-byte.
//
// Machine model: sixteen 32-bit registers r0..r15 (r15 is the stack
// pointer, named sp), three comparison flags (Z zero, LT signed-less,
// B unsigned-below), a flat 32-bit byte-addressable address space, and a
// descending full stack. CALL pushes the return address; RET pops it.
// All branch displacements are relative to the address of the *next*
// instruction, exactly as on x86.
//
// The package has two encodings of that one logical instruction set:
// ZVM-32, variable-width (codec.go), and ZVM-64, fixed-width with
// bounded branch reach (zvm64.go). Inst is the logical instruction, the
// same under both. The Arch values ZVM32 and ZVM64 are the only way to
// encode or decode an instruction, or to find its length or static
// target.
package isa

import "fmt"

// Register indices. SP is the conventional stack pointer.
const (
	// NumRegs is the number of general-purpose registers.
	NumRegs = 16
	// SP is the register index used as the stack pointer.
	SP = 15
)

// Op identifies a ZVM-32 operation, independent of its encoded form.
type Op uint8

// Operations. The zero value is OpInvalid so that a zeroed Inst is
// detectably invalid.
const (
	OpInvalid Op = iota

	// No-operand instructions.
	OpNop     // no operation
	OpHlt     // halt the machine (abnormal stop outside a syscall)
	OpRet     // pop return address, jump to it
	OpSyscall // operating-environment call; number in r0, args r1..r4

	// Single-register instructions.
	OpPush  // push Rd
	OpPop   // pop into Rd
	OpJmpR  // indirect jump to the address in Rd
	OpCallR // indirect call to the address in Rd
	OpInc   // Rd++, sets flags vs. zero
	OpDec   // Rd--, sets flags vs. zero
	OpNot   // Rd = ^Rd

	// Immediate pushes.
	OpPushI8  // push sign-extended 8-bit immediate
	OpPushI32 // push 32-bit immediate (encoded 0x68, sled-compatible)

	// Direct control transfers (Imm is the relative displacement).
	OpJmp8  // unconditional jump, rel8
	OpJmp32 // unconditional jump, rel32
	OpCall  // call, rel32
	OpJcc8  // conditional jump, rel8 (condition in Cc)
	OpJcc32 // conditional jump, rel32 (condition in Cc)

	// Register-register ALU (Rd = Rd op Rs; flags set vs. zero, except Cmp).
	OpAdd
	OpSub
	OpAnd
	OpOr
	OpXor
	OpMul
	OpDiv // unsigned divide; divide-by-zero faults the machine
	OpMod // unsigned remainder; divide-by-zero faults the machine
	OpShl
	OpShr
	OpCmp // compare Rd with Rs: sets Z, LT, B; registers unchanged
	OpMov // Rd = Rs

	// Register-imm8 ALU.
	OpAddI8 // Rd += sign-extended imm8
	OpCmpI8 // compare Rd with sign-extended imm8
	OpShlI  // Rd <<= imm8
	OpShrI  // Rd >>= imm8 (logical)

	// Register-imm32 ALU.
	OpMovI // Rd = imm32
	OpAddI // Rd += imm32
	OpAndI // Rd &= imm32
	OpOrI  // Rd |= imm32
	OpXorI // Rd ^= imm32
	OpCmpI // compare Rd with imm32

	// PC-relative (Imm is displacement from the next instruction).
	OpLea    // Rd = PC_next + disp32: address formation
	OpLoadPC // Rd = mem32[PC_next + disp32]

	// Memory (Imm is a signed 32-bit displacement from the base register).
	OpLoad   // Rd = mem32[Rs + disp32]
	OpLoadB  // Rd = zero-extended mem8[Rs + disp32]
	OpStore  // mem32[Rd + disp32] = Rs
	OpStoreB // mem8[Rd + disp32] = low byte of Rs

	opMax // sentinel; keep last
)

// Cc is a branch condition code for OpJcc8/OpJcc32. The numeric values
// mirror x86 condition encodings so conditional long jumps encode as
// 0x0F, 0x80+cc, rel32.
type Cc uint8

// Condition codes.
const (
	CcB  Cc = 0x2 // below (unsigned <)
	CcAE Cc = 0x3 // above or equal (unsigned >=)
	CcZ  Cc = 0x4 // zero / equal
	CcNZ Cc = 0x5 // not zero / not equal
	CcL  Cc = 0xC // less (signed <)
	CcGE Cc = 0xD // greater or equal (signed >=)
	CcLE Cc = 0xE // less or equal (signed <=)
	CcG  Cc = 0xF // greater (signed >)
)

// ccNames maps condition codes to their mnemonic suffixes; undefined
// codes have the empty name.
var ccNames = [16]string{
	CcB: "b", CcAE: "ae", CcZ: "z", CcNZ: "nz",
	CcL: "l", CcGE: "ge", CcLE: "le", CcG: "g",
}

// ValidCc reports whether cc is a defined condition code.
func ValidCc(cc Cc) bool {
	return int(cc) < len(ccNames) && ccNames[cc] != ""
}

// CcName returns the mnemonic suffix ("z", "nz", ...) for cc, or "?" if
// cc is not a defined condition.
func CcName(cc Cc) string {
	if ValidCc(cc) {
		return ccNames[cc]
	}
	return "?"
}

// Negate returns the logically opposite condition (Z <-> NZ, L <-> GE, ...).
func (c Cc) Negate() Cc { return c ^ 1 }

// Well-known opcode byte values. These are exported because the paper's
// sled construction depends on the literal byte values: a run of
// PushI32Byte opcodes terminated by NopBytes re-synchronizes execution no
// matter which byte control lands on.
const (
	PushI32Byte = 0x68 // opcode byte of OpPushI32 (x86 "push imm32")
	NopByte     = 0x90 // opcode byte of OpNop     (x86 "nop")
	HltByte     = 0xF4 // opcode byte of OpHlt     (x86 "hlt")
	Jcc32Prefix = 0x0F // first byte of OpJcc32    (x86 two-byte escape)
)

// form describes the encoded shape of an instruction.
type form uint8

const (
	fNone     form = iota + 1 // [op]
	fReg                      // [op][reg]
	fImm8                     // [op][imm8]
	fRel8                     // [op][rel8]
	fRegReg                   // [op][rd][rs]
	fRegImm8                  // [op][rd][imm8]
	fImm32                    // [op][imm32]
	fRel32                    // [op][rel32]
	fRegImm32                 // [op][rd][imm32]
	fRegRel32                 // [op][rd][rel32]   (PC-relative)
	fCc8                      // [0x70+cc][rel8]
	fCc32                     // [0x0F][0x80+cc][rel32]
	fMem                      // [op][ra][rb][disp32]
)

// formLen gives the encoded length in bytes of each form (0 for the
// zero form of undefined ops).
var formLen = [fMem + 1]int{
	fNone: 1, fReg: 2, fImm8: 2, fRel8: 2, fRegReg: 3, fRegImm8: 3,
	fImm32: 5, fRel32: 5, fRegImm32: 6, fRegRel32: 6, fCc8: 2, fCc32: 6,
	fMem: 7,
}

// opInfo is the static description of one operation.
type opInfo struct {
	name string
	byte uint8 // primary opcode byte (unused for fCc8/fCc32)
	form form
}

// opTable drives both the encoder and the decoder.
var opTable = [opMax]opInfo{
	OpNop:     {"nop", NopByte, fNone},
	OpHlt:     {"hlt", HltByte, fNone},
	OpRet:     {"ret", 0xC3, fNone},
	OpSyscall: {"syscall", 0xF5, fNone},

	OpPush:  {"push", 0x51, fReg},
	OpPop:   {"pop", 0x59, fReg},
	OpJmpR:  {"jmpr", 0xFE, fReg},
	OpCallR: {"callr", 0xFD, fReg},
	OpInc:   {"inc", 0x40, fReg},
	OpDec:   {"dec", 0x48, fReg},
	OpNot:   {"not", 0xF8, fReg},

	OpPushI8:  {"push8", 0x6A, fImm8},
	OpPushI32: {"pushi", PushI32Byte, fImm32},

	OpJmp8:  {"jmp.s", 0xEB, fRel8},
	OpJmp32: {"jmp", 0xE9, fRel32},
	OpCall:  {"call", 0xE8, fRel32},
	OpJcc8:  {"jcc.s", 0x70, fCc8},
	OpJcc32: {"jcc", Jcc32Prefix, fCc32},

	OpAdd: {"add", 0x01, fRegReg},
	OpSub: {"sub", 0x29, fRegReg},
	OpAnd: {"and", 0x21, fRegReg},
	OpOr:  {"or", 0x09, fRegReg},
	OpXor: {"xor", 0x31, fRegReg},
	OpMul: {"mul", 0xAF, fRegReg},
	OpDiv: {"div", 0xF6, fRegReg},
	OpMod: {"mod", 0x99, fRegReg},
	OpShl: {"shl", 0xD3, fRegReg},
	OpShr: {"shr", 0xD2, fRegReg},
	OpCmp: {"cmp", 0x39, fRegReg},
	OpMov: {"mov", 0x89, fRegReg},

	OpAddI8: {"addi8", 0x83, fRegImm8},
	OpCmpI8: {"cmpi8", 0x3C, fRegImm8},
	OpShlI:  {"shli", 0xC1, fRegImm8},
	OpShrI:  {"shri", 0xC8, fRegImm8},

	OpMovI: {"movi", 0xB8, fRegImm32},
	OpAddI: {"addi", 0x81, fRegImm32},
	OpAndI: {"andi", 0x25, fRegImm32},
	OpOrI:  {"ori", 0x0D, fRegImm32},
	OpXorI: {"xori", 0x35, fRegImm32},
	OpCmpI: {"cmpi", 0x3D, fRegImm32},

	OpLea:    {"lea", 0x8D, fRegRel32},
	OpLoadPC: {"loadpc", 0x8E, fRegRel32},

	OpLoad:   {"load", 0x8B, fMem},
	OpLoadB:  {"loadb", 0x8A, fMem},
	OpStore:  {"store", 0x87, fMem},
	OpStoreB: {"storeb", 0x86, fMem},
}

// byteToOp maps a primary opcode byte back to its operation for the
// decoder. Conditional branches are handled separately because their
// condition is folded into the opcode byte (fCc8) or a second byte (fCc32).
var byteToOp = buildByteToOp()

func buildByteToOp() [256]Op {
	var t [256]Op
	for op := Op(1); op < opMax; op++ {
		info := opTable[op]
		if info.form == 0 || info.form == fCc8 || info.form == fCc32 {
			continue
		}
		t[info.byte] = op
	}
	return t
}

// Name returns the canonical mnemonic for op ("jcc" family names exclude
// the condition; use Inst.String for fully rendered mnemonics).
func (op Op) Name() string {
	if op == OpInvalid || op >= opMax || opTable[op].form == 0 {
		return "invalid"
	}
	return opTable[op].name
}

// Valid reports whether op names a defined operation.
func (op Op) Valid() bool {
	return op > OpInvalid && op < opMax && opTable[op].form != 0
}

// Inst is a single decoded (or to-be-encoded) instruction in logical
// form. Its predicates (IsBranch, HasFallthrough, ...) hold on every
// ISA; its encoded bytes, length and static target depend on the ISA and
// come from an Arch (Encode, InstLen, TargetAddr).
type Inst struct {
	Op Op
	Cc Cc    // condition for OpJcc8/OpJcc32
	Rd uint8 // destination / first register operand
	Rs uint8 // source / second register operand
	// Imm holds, depending on Op: an immediate, a signed memory
	// displacement, or a branch/PC displacement relative to the next
	// instruction.
	Imm int32
}

// IsBranch reports whether the instruction is any control transfer other
// than a fallthrough (direct or indirect jump, call, or return).
func (in Inst) IsBranch() bool {
	switch in.Op {
	case OpJmp8, OpJmp32, OpJcc8, OpJcc32, OpCall, OpJmpR, OpCallR, OpRet:
		return true
	}
	return false
}

// IsDirectBranch reports whether the instruction transfers control to a
// statically encoded relative target.
func (in Inst) IsDirectBranch() bool {
	switch in.Op {
	case OpJmp8, OpJmp32, OpJcc8, OpJcc32, OpCall:
		return true
	}
	return false
}

// IsIndirectBranch reports whether the target is computed at run time.
// RET is included: its target comes from the stack.
func (in Inst) IsIndirectBranch() bool {
	switch in.Op {
	case OpJmpR, OpCallR, OpRet:
		return true
	}
	return false
}

// IsCall reports whether the instruction is a direct or indirect call.
func (in Inst) IsCall() bool { return in.Op == OpCall || in.Op == OpCallR }

// HasFallthrough reports whether execution can continue at the next
// sequential instruction. Unconditional jumps, returns and hlt do not
// fall through; calls do (they return).
func (in Inst) HasFallthrough() bool {
	switch in.Op {
	case OpJmp8, OpJmp32, OpJmpR, OpRet, OpHlt:
		return false
	}
	return true
}

// IsPCRelData reports whether the instruction forms or loads from a
// PC-relative address (the mandatory-transform targets besides branches).
func (in Inst) IsPCRelData() bool { return in.Op == OpLea || in.Op == OpLoadPC }

// String renders the instruction in the assembler's syntax.
func (in Inst) String() string {
	if !in.Op.Valid() {
		return "(invalid)"
	}
	reg := func(r uint8) string {
		if r == SP {
			return "sp"
		}
		return fmt.Sprintf("r%d", r)
	}
	switch opTable[in.Op].form {
	case fNone:
		return in.Op.Name()
	case fReg:
		return fmt.Sprintf("%s %s", in.Op.Name(), reg(in.Rd))
	case fImm8, fImm32:
		return fmt.Sprintf("%s %d", in.Op.Name(), in.Imm)
	case fRel8, fRel32:
		return fmt.Sprintf("%s %+d", in.Op.Name(), in.Imm)
	case fCc8:
		return fmt.Sprintf("j%s.s %+d", CcName(in.Cc), in.Imm)
	case fCc32:
		return fmt.Sprintf("j%s %+d", CcName(in.Cc), in.Imm)
	case fRegReg:
		return fmt.Sprintf("%s %s, %s", in.Op.Name(), reg(in.Rd), reg(in.Rs))
	case fRegImm8, fRegImm32:
		return fmt.Sprintf("%s %s, %d", in.Op.Name(), reg(in.Rd), in.Imm)
	case fRegRel32:
		return fmt.Sprintf("%s %s, %+d", in.Op.Name(), reg(in.Rd), in.Imm)
	case fMem:
		switch in.Op {
		case OpStore, OpStoreB:
			return fmt.Sprintf("%s [%s%+d], %s", in.Op.Name(), reg(in.Rd), in.Imm, reg(in.Rs))
		default:
			return fmt.Sprintf("%s %s, [%s%+d]", in.Op.Name(), reg(in.Rd), reg(in.Rs), in.Imm)
		}
	}
	return "(invalid)"
}

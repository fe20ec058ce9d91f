package asm

import (
	"fmt"
	"strings"

	"zipr/internal/isa"
)

// instShape describes how a mnemonic's operands are parsed.
type instShape uint8

const (
	shNone   instShape = iota + 1 // nop
	shReg                         // push r1
	shImm8                        // push8 -3
	shImm32                       // pushi 99 / pushi label
	shRel                         // jmp label (rel8 or rel32 by mnemonic)
	shRegReg                      // add r1, r2
	shRegI8                       // addi8 r1, -4
	shRegI32                      // movi r1, 99 / movi r1, label
	shPCRel                       // lea r1, label
	shLoad                        // load r1, [r2+4]
	shStore                       // store [r1+4], r2
)

// arity is each shape's operand count.
var arity = [...]int{
	shNone: 0, shReg: 1, shImm8: 1, shImm32: 1, shRel: 1,
	shRegReg: 2, shRegI8: 2, shRegI32: 2, shPCRel: 2, shLoad: 2, shStore: 2,
}

type mnemonic struct {
	name  string
	op    isa.Op
	cc    isa.Cc
	shape instShape
}

// mnemonics maps source mnemonics to operations. Conditional jumps carry
// their condition; ".s" variants use the short (rel8) encodings.
var mnemonics = buildMnemonics()

func buildMnemonics() map[string]*mnemonic {
	m := map[string]mnemonic{
		"nop":     {op: isa.OpNop, shape: shNone},
		"hlt":     {op: isa.OpHlt, shape: shNone},
		"ret":     {op: isa.OpRet, shape: shNone},
		"syscall": {op: isa.OpSyscall, shape: shNone},
		"push":    {op: isa.OpPush, shape: shReg},
		"pop":     {op: isa.OpPop, shape: shReg},
		"jmpr":    {op: isa.OpJmpR, shape: shReg},
		"callr":   {op: isa.OpCallR, shape: shReg},
		"inc":     {op: isa.OpInc, shape: shReg},
		"dec":     {op: isa.OpDec, shape: shReg},
		"not":     {op: isa.OpNot, shape: shReg},
		"push8":   {op: isa.OpPushI8, shape: shImm8},
		"pushi":   {op: isa.OpPushI32, shape: shImm32},
		"jmp":     {op: isa.OpJmp32, shape: shRel},
		"jmp.s":   {op: isa.OpJmp8, shape: shRel},
		"call":    {op: isa.OpCall, shape: shRel},
		"add":     {op: isa.OpAdd, shape: shRegReg},
		"sub":     {op: isa.OpSub, shape: shRegReg},
		"and":     {op: isa.OpAnd, shape: shRegReg},
		"or":      {op: isa.OpOr, shape: shRegReg},
		"xor":     {op: isa.OpXor, shape: shRegReg},
		"mul":     {op: isa.OpMul, shape: shRegReg},
		"div":     {op: isa.OpDiv, shape: shRegReg},
		"mod":     {op: isa.OpMod, shape: shRegReg},
		"shl":     {op: isa.OpShl, shape: shRegReg},
		"shr":     {op: isa.OpShr, shape: shRegReg},
		"cmp":     {op: isa.OpCmp, shape: shRegReg},
		"mov":     {op: isa.OpMov, shape: shRegReg},
		"addi8":   {op: isa.OpAddI8, shape: shRegI8},
		"cmpi8":   {op: isa.OpCmpI8, shape: shRegI8},
		"shli":    {op: isa.OpShlI, shape: shRegI8},
		"shri":    {op: isa.OpShrI, shape: shRegI8},
		"movi":    {op: isa.OpMovI, shape: shRegI32},
		"addi":    {op: isa.OpAddI, shape: shRegI32},
		"andi":    {op: isa.OpAndI, shape: shRegI32},
		"ori":     {op: isa.OpOrI, shape: shRegI32},
		"xori":    {op: isa.OpXorI, shape: shRegI32},
		"cmpi":    {op: isa.OpCmpI, shape: shRegI32},
		"lea":     {op: isa.OpLea, shape: shPCRel},
		"loadpc":  {op: isa.OpLoadPC, shape: shPCRel},
		"load":    {op: isa.OpLoad, shape: shLoad},
		"loadb":   {op: isa.OpLoadB, shape: shLoad},
		"store":   {op: isa.OpStore, shape: shStore},
		"storeb":  {op: isa.OpStoreB, shape: shStore},
	}
	for name, cc := range map[string]isa.Cc{
		"jz": isa.CcZ, "jnz": isa.CcNZ, "jl": isa.CcL, "jge": isa.CcGE,
		"jle": isa.CcLE, "jg": isa.CcG, "jb": isa.CcB, "jae": isa.CcAE,
	} {
		m[name] = mnemonic{op: isa.OpJcc32, cc: cc, shape: shRel}
		m[name+".s"] = mnemonic{op: isa.OpJcc8, cc: cc, shape: shRel}
	}
	out := make(map[string]*mnemonic, len(m))
	for name, mn := range m {
		mn.name = name
		out[name] = &mn
	}
	return out
}

// parseReg parses "sp" or "r" followed by decimal digits naming a
// register, in either case and with surrounding space.
func parseReg(s string) (uint8, error) {
	s = strings.TrimSpace(s)
	if len(s) == 2 && s[0]|0x20 == 's' && s[1]|0x20 == 'p' {
		return isa.SP, nil
	}
	if len(s) >= 2 && s[0]|0x20 == 'r' {
		n := 0
		for i := 1; i < len(s) && n < isa.NumRegs; i++ {
			c := s[i]
			if c < '0' || c > '9' {
				n = isa.NumRegs
				break
			}
			n = n*10 + int(c-'0')
		}
		if n < isa.NumRegs {
			return uint8(n), nil
		}
	}
	return 0, fmt.Errorf("bad register %q", strings.ToLower(s))
}

// parseMem parses "[reg]", "[reg+disp]" or "[reg-disp]".
func parseMem(s string) (uint8, int32, error) {
	s = strings.TrimSpace(s)
	if len(s) < 3 || s[0] != '[' || s[len(s)-1] != ']' {
		return 0, 0, fmt.Errorf("bad memory operand %q", s)
	}
	body := s[1 : len(s)-1]
	regPart, disp := body, int64(0)
	if i := strings.IndexAny(body, "+-"); i > 0 {
		n, err := number(body[i:])
		if err != nil {
			return 0, 0, fmt.Errorf("bad displacement in %q: %v", s, err)
		}
		regPart, disp = body[:i], n
	}
	r, err := parseReg(regPart)
	if err != nil {
		return 0, 0, err
	}
	return r, int32(disp), nil
}

// instruction is pass 1 of an instruction statement: it checks the
// mnemonic, ISA support, alignment and arity, reserves the encoding's
// bytes (every mnemonic has a fixed size) and records the slot that
// pass 2 encodes once labels resolve.
func (a *assembler) instruction(s string, line int) error {
	name, rest := cutField(s)
	name = strings.ToLower(name)
	mn, ok := mnemonics[name]
	if !ok {
		return fmt.Errorf("unknown mnemonic %q", name)
	}
	ilen := a.arch.InstLen(isa.Inst{Op: mn.op, Cc: mn.cc})
	if ilen == 0 {
		return fmt.Errorf("mnemonic %q unsupported on %s", name, a.arch.Name())
	}
	if al := a.arch.Align(); al > 1 && a.pc()%al != 0 {
		return fmt.Errorf("instruction at %#x misaligned for %s (use .align %d)",
			a.pc(), a.arch.Name(), al)
	}
	op1, op2, n := splitOperands(rest)
	if want := arity[mn.shape]; n != want {
		return fmt.Errorf("expected %d operand(s), got %d", want, n)
	}
	off, err := a.reserve(ilen)
	if err != nil {
		return err
	}
	a.slots = append(a.slots, slot{line: int32(line), sec: a.sec, off: off, mn: mn, op1: op1, op2: op2})
	return nil
}

// encode is pass 2 of an instruction: it resolves the slot's operands
// and writes the encoding over the bytes pass 1 reserved.
func (a *assembler) encode(sl *slot) error {
	mn := sl.mn
	in := isa.Inst{Op: mn.op, Cc: mn.cc}
	// The address just past the instruction, for PC-relative operands.
	next := int64(a.base[sl.sec]) + int64(sl.off) + int64(a.arch.InstLen(in))
	var err error
	switch mn.shape {
	case shReg:
		in.Rd, err = parseReg(sl.op1)
	case shImm8, shImm32:
		var v int64
		v, err = a.value(sl.op1)
		in.Imm = int32(v)
	case shRel:
		var target int64
		if target, err = a.value(sl.op1); err != nil {
			break
		}
		disp := target - next
		if in.Op == isa.OpJmp8 || in.Op == isa.OpJcc8 {
			if disp < -128 || disp > 127 {
				return fmt.Errorf("short branch to %q out of range (disp %d)", sl.op1, disp)
			}
		}
		in.Imm = int32(disp)
	case shRegReg:
		if in.Rd, err = parseReg(sl.op1); err != nil {
			break
		}
		in.Rs, err = parseReg(sl.op2)
	case shRegI8, shRegI32:
		if in.Rd, err = parseReg(sl.op1); err != nil {
			break
		}
		var v int64
		v, err = a.value(sl.op2)
		in.Imm = int32(v)
	case shPCRel:
		if in.Rd, err = parseReg(sl.op1); err != nil {
			break
		}
		var target int64
		target, err = a.value(sl.op2)
		in.Imm = int32(target - next)
	case shLoad:
		if in.Rd, err = parseReg(sl.op1); err != nil {
			break
		}
		in.Rs, in.Imm, err = parseMem(sl.op2)
	case shStore:
		if in.Rd, in.Imm, err = parseMem(sl.op1); err != nil {
			break
		}
		in.Rs, err = parseReg(sl.op2)
	}
	if err != nil {
		return err
	}
	// InstLen depends only on the op, so the encoding fills exactly the
	// bytes pass 1 reserved.
	buf := a.buf[sl.sec]
	if _, err := a.arch.AppendEncode(buf[sl.off:sl.off], in); err != nil {
		return fmt.Errorf("%s: %v", mn.name, err)
	}
	return nil
}

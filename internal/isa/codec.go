package isa

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Encoding and decoding of ZVM-32 machine code. Multi-byte immediates are
// little-endian, as on x86.

// Decode errors.
var (
	ErrTruncated = errors.New("isa: truncated instruction")
	ErrBadOpcode = errors.New("isa: unknown opcode")
	ErrBadReg    = errors.New("isa: register index out of range")
	ErrBadCc     = errors.New("isa: unknown condition code")
)

// MaxLen is the longest possible ZVM-32 encoding in bytes.
const MaxLen = 7

// InstLen returns the ZVM-32 encoded length of in in bytes, or 0 when
// in is invalid.
func (*zvm32Arch) InstLen(in Inst) int {
	if !in.Op.Valid() {
		return 0
	}
	return formLen[opTable[in.Op].form]
}

// TargetAddr returns the absolute target address of a direct branch or
// PC-relative data reference decoded at address addr. The second result
// is false for instructions without a static target.
func (a *zvm32Arch) TargetAddr(in Inst, addr uint32) (uint32, bool) {
	switch in.Op {
	case OpJmp8, OpJmp32, OpJcc8, OpJcc32, OpCall, OpLea, OpLoadPC:
		return addr + uint32(a.InstLen(in)) + uint32(in.Imm), true
	}
	return 0, false
}

// AppendEncode appends the ZVM-32 encoding of in to dst and returns the
// extended slice. It returns an error when the instruction is malformed
// (invalid op, register out of range, immediate out of range for the
// form).
func (*zvm32Arch) AppendEncode(dst []byte, in Inst) ([]byte, error) {
	if !in.Op.Valid() {
		return dst, fmt.Errorf("%w: op %d", ErrBadOpcode, in.Op)
	}
	info := opTable[in.Op]
	checkReg := func(r uint8) error {
		if r >= NumRegs {
			return fmt.Errorf("%w: r%d", ErrBadReg, r)
		}
		return nil
	}
	checkImm8 := func() error {
		if in.Imm < -128 || in.Imm > 127 {
			return fmt.Errorf("isa: immediate %d out of int8 range for %s", in.Imm, in.Op.Name())
		}
		return nil
	}
	le32 := func(v int32) []byte {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], uint32(v))
		return b[:]
	}
	switch info.form {
	case fNone:
		return append(dst, info.byte), nil
	case fReg:
		if err := checkReg(in.Rd); err != nil {
			return dst, err
		}
		return append(dst, info.byte, in.Rd), nil
	case fImm8, fRel8:
		if err := checkImm8(); err != nil {
			return dst, err
		}
		return append(dst, info.byte, byte(int8(in.Imm))), nil
	case fRegReg:
		if err := checkReg(in.Rd); err != nil {
			return dst, err
		}
		if err := checkReg(in.Rs); err != nil {
			return dst, err
		}
		return append(dst, info.byte, in.Rd, in.Rs), nil
	case fRegImm8:
		if err := checkReg(in.Rd); err != nil {
			return dst, err
		}
		if err := checkImm8(); err != nil {
			return dst, err
		}
		return append(dst, info.byte, in.Rd, byte(int8(in.Imm))), nil
	case fImm32, fRel32:
		return append(append(dst, info.byte), le32(in.Imm)...), nil
	case fRegImm32, fRegRel32:
		if err := checkReg(in.Rd); err != nil {
			return dst, err
		}
		return append(append(dst, info.byte, in.Rd), le32(in.Imm)...), nil
	case fCc8:
		if !ValidCc(in.Cc) {
			return dst, fmt.Errorf("%w: %d", ErrBadCc, in.Cc)
		}
		if err := checkImm8(); err != nil {
			return dst, err
		}
		return append(dst, 0x70|uint8(in.Cc), byte(int8(in.Imm))), nil
	case fCc32:
		if !ValidCc(in.Cc) {
			return dst, fmt.Errorf("%w: %d", ErrBadCc, in.Cc)
		}
		return append(append(dst, Jcc32Prefix, 0x80|uint8(in.Cc)), le32(in.Imm)...), nil
	case fMem:
		if err := checkReg(in.Rd); err != nil {
			return dst, err
		}
		if err := checkReg(in.Rs); err != nil {
			return dst, err
		}
		return append(append(dst, info.byte, in.Rd, in.Rs), le32(in.Imm)...), nil
	}
	return dst, fmt.Errorf("%w: op %d", ErrBadOpcode, in.Op)
}

// Encode returns the ZVM-32 encoding of in.
func (a *zvm32Arch) Encode(in Inst) ([]byte, error) {
	return a.AppendEncode(make([]byte, 0, MaxLen), in)
}

// Decode rejections are built once: inference decodes at every text
// offset and most offsets are rejected, so a rejection must not
// allocate. Each entry renders exactly as the fmt.Errorf it stands for
// and wraps the same sentinel, so Error() and errors.Is are unchanged.
var (
	errBadOpcodeByte [256]error // "%w: %02x" of the opcode byte
	errBadOpcode0F   [256]error // "%w: 0f %02x" of the byte after 0x0F
	errBadRegByte    [256]error // "%w: r%d" of the register byte
	errBadCcCode     [16]error  // "%w: cc %x" of the condition nibble
)

func init() {
	for b := 0; b < 256; b++ {
		errBadOpcodeByte[b] = fmt.Errorf("%w: %02x", ErrBadOpcode, b)
		errBadOpcode0F[b] = fmt.Errorf("%w: 0f %02x", ErrBadOpcode, b)
		errBadRegByte[b] = fmt.Errorf("%w: r%d", ErrBadReg, b)
	}
	for cc := range errBadCcCode {
		errBadCcCode[cc] = fmt.Errorf("%w: cc %x", ErrBadCc, cc)
	}
}

// Decode decodes the ZVM-32 instruction at the start of b; the
// variable-width encoding decodes the same at every address. Errors:
// ErrTruncated when b is too short, ErrBadOpcode for undefined
// encodings, ErrBadCc for undefined conditions, ErrBadReg for register
// bytes >= NumRegs (such byte sequences are data, not code). A rejection
// never allocates.
func (*zvm32Arch) Decode(b []byte, _ uint32) (Inst, error) {
	if len(b) == 0 {
		return Inst{}, ErrTruncated
	}
	// Conditional short jumps: 0x70|cc for defined cc only.
	if b[0]&0xF0 == 0x70 {
		cc := Cc(b[0] & 0x0F)
		if ValidCc(cc) {
			if len(b) < 2 {
				return Inst{}, ErrTruncated
			}
			return Inst{Op: OpJcc8, Cc: cc, Imm: int32(int8(b[1]))}, nil
		}
	}
	// Conditional long jumps: 0x0F 0x80|cc rel32.
	if b[0] == Jcc32Prefix {
		if len(b) < 2 {
			return Inst{}, ErrTruncated
		}
		if b[1]&0xF0 != 0x80 {
			return Inst{}, errBadOpcode0F[b[1]]
		}
		cc := Cc(b[1] & 0x0F)
		if !ValidCc(cc) {
			return Inst{}, errBadCcCode[cc]
		}
		if len(b) < 6 {
			return Inst{}, ErrTruncated
		}
		return Inst{Op: OpJcc32, Cc: cc, Imm: int32(binary.LittleEndian.Uint32(b[2:6]))}, nil
	}
	op := byteToOp[b[0]]
	if op == OpInvalid {
		return Inst{}, errBadOpcodeByte[b[0]]
	}
	info := opTable[op]
	if len(b) < formLen[info.form] {
		return Inst{}, ErrTruncated
	}
	in := Inst{Op: op}
	switch info.form {
	case fNone:
	case fReg:
		in.Rd = b[1]
	case fImm8, fRel8:
		in.Imm = int32(int8(b[1]))
	case fRegReg:
		in.Rd, in.Rs = b[1], b[2]
	case fRegImm8:
		in.Rd, in.Imm = b[1], int32(int8(b[2]))
	case fImm32, fRel32:
		in.Imm = int32(binary.LittleEndian.Uint32(b[1:5]))
	case fRegImm32, fRegRel32:
		in.Rd, in.Imm = b[1], int32(binary.LittleEndian.Uint32(b[2:6]))
	case fMem:
		in.Rd, in.Rs, in.Imm = b[1], b[2], int32(binary.LittleEndian.Uint32(b[3:7]))
	default:
		return Inst{}, errBadOpcodeByte[b[0]]
	}
	// Register bytes >= NumRegs are data, not code; forms without a
	// register operand leave Rd/Rs zero.
	if in.Rd >= NumRegs {
		return Inst{}, errBadRegByte[in.Rd]
	}
	if in.Rs >= NumRegs {
		return Inst{}, errBadRegByte[in.Rs]
	}
	return in, nil
}

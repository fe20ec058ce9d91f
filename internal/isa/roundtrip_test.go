package isa

// Exhaustive encode/decode round-trip coverage: every defined opcode is
// exercised with boundary operands generated from its form — register
// extremes, int8/int32 immediate extremes, every condition code — and
// the decode must reproduce the instruction, the advertised length and
// the exact bytes. The hand-written sample table in isa_test.go stays
// as documentation; this file is the completeness gate (a new opcode
// added to opTable is covered here automatically).

import (
	"bytes"
	"math"
	"testing"
)

// boundaryCases returns the operand combinations worth pinning for one
// form: the extremes of every operand field plus a mid-range value.
func boundaryCases(f form) []Inst {
	regs := []uint8{0, 1, NumRegs - 1}
	imm8s := []int32{math.MinInt8, -1, 0, 1, math.MaxInt8}
	imm32s := []int32{math.MinInt32, -1, 0, 1, math.MaxInt32}
	var ccs []Cc
	for cc := range Cc(len(ccNames)) {
		if ValidCc(cc) {
			ccs = append(ccs, cc)
		}
	}
	var out []Inst
	switch f {
	case fNone:
		out = append(out, Inst{})
	case fReg:
		for _, r := range regs {
			out = append(out, Inst{Rd: r})
		}
	case fImm8, fRel8:
		for _, imm := range imm8s {
			out = append(out, Inst{Imm: imm})
		}
	case fRegReg:
		for _, rd := range regs {
			for _, rs := range regs {
				out = append(out, Inst{Rd: rd, Rs: rs})
			}
		}
	case fRegImm8:
		for _, rd := range regs {
			for _, imm := range imm8s {
				out = append(out, Inst{Rd: rd, Imm: imm})
			}
		}
	case fImm32, fRel32:
		for _, imm := range imm32s {
			out = append(out, Inst{Imm: imm})
		}
	case fRegImm32, fRegRel32:
		for _, rd := range regs {
			for _, imm := range imm32s {
				out = append(out, Inst{Rd: rd, Imm: imm})
			}
		}
	case fCc8:
		for _, cc := range ccs {
			for _, imm := range imm8s {
				out = append(out, Inst{Cc: cc, Imm: imm})
			}
		}
	case fCc32:
		for _, cc := range ccs {
			for _, imm := range imm32s {
				out = append(out, Inst{Cc: cc, Imm: imm})
			}
		}
	case fMem:
		for _, rd := range regs {
			for _, rs := range regs {
				for _, imm := range imm32s {
					out = append(out, Inst{Rd: rd, Rs: rs, Imm: imm})
				}
			}
		}
	}
	return out
}

// TestRoundTripEveryOpcode drives every defined operation through
// encode -> decode -> re-encode with boundary operands.
func TestRoundTripEveryOpcode(t *testing.T) {
	covered := 0
	for op := Op(1); op < opMax; op++ {
		info := opTable[op]
		if info.form == 0 {
			t.Errorf("op %d has no opTable entry", op)
			continue
		}
		covered++
		cases := boundaryCases(info.form)
		if len(cases) == 0 {
			t.Errorf("%s: no boundary cases for form %d", info.name, info.form)
			continue
		}
		for _, c := range cases {
			in := c
			in.Op = op
			enc, err := ZVM32.Encode(in)
			if err != nil {
				t.Errorf("%s %+v: Encode: %v", info.name, in, err)
				continue
			}
			if want := formLen[info.form]; len(enc) != want {
				t.Errorf("%s %+v: encoded %d bytes, form says %d", info.name, in, len(enc), want)
			}
			if got := ZVM32.InstLen(in); got != len(enc) {
				t.Errorf("%s %+v: Len() = %d, encoding is %d bytes", info.name, in, got, len(enc))
			}
			dec, err := ZVM32.Decode(enc, 0)
			if err != nil {
				t.Errorf("%s %+v: ZVM32.Decode(% x): %v", info.name, in, enc, err)
				continue
			}
			if dec != in {
				t.Errorf("%s: round trip mangled instruction\n  in  %+v\n  out %+v (bytes % x)", info.name, in, dec, enc)
				continue
			}
			re, err := ZVM32.Encode(dec)
			if err != nil {
				t.Errorf("%s %+v: re-encode: %v", info.name, dec, err)
				continue
			}
			if !bytes.Equal(enc, re) {
				t.Errorf("%s %+v: re-encode differs: % x vs % x", info.name, in, enc, re)
			}
			// Decoding with trailing garbage must not change the result:
			// the decoder consumes exactly Len bytes.
			padded := append(append([]byte(nil), enc...), 0xCC, 0xCC)
			if dec2, err := ZVM32.Decode(padded, 0); err != nil || dec2 != in {
				t.Errorf("%s %+v: decode with trailing bytes: %+v, %v", info.name, in, dec2, err)
			}
		}
	}
	if covered != int(opMax)-1 {
		t.Errorf("covered %d opcodes, table defines %d", covered, int(opMax)-1)
	}
}

// TestShortBranchExtremes pins the rel8 forms at both displacement
// extremes byte-for-byte: the span-dependent branch relaxation depends
// on -128 and +127 encoding (and decoding) exactly.
func TestShortBranchExtremes(t *testing.T) {
	cases := []struct {
		name string
		in   Inst
		want []byte
	}{
		{"jmp.s back", Inst{Op: OpJmp8, Imm: -128}, []byte{0xEB, 0x80}},
		{"jmp.s fwd", Inst{Op: OpJmp8, Imm: 127}, []byte{0xEB, 0x7F}},
		{"jz.s back", Inst{Op: OpJcc8, Cc: CcZ, Imm: -128}, []byte{0x74, 0x80}},
		{"jz.s fwd", Inst{Op: OpJcc8, Cc: CcZ, Imm: 127}, []byte{0x74, 0x7F}},
		{"jnz.s fwd", Inst{Op: OpJcc8, Cc: CcNZ, Imm: 127}, []byte{0x75, 0x7F}},
		{"push8 min", Inst{Op: OpPushI8, Imm: -128}, []byte{0x6A, 0x80}},
		{"push8 max", Inst{Op: OpPushI8, Imm: 127}, []byte{0x6A, 0x7F}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			enc, err := ZVM32.Encode(tt.in)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc, tt.want) {
				t.Fatalf("encoded % x, want % x", enc, tt.want)
			}
			dec, err := ZVM32.Decode(enc, 0)
			if err != nil {
				t.Fatal(err)
			}
			if dec != tt.in {
				t.Fatalf("decoded %+v, want %+v", dec, tt.in)
			}
		})
	}
	// One past each extreme must be rejected, not truncated.
	for _, imm := range []int32{-129, 128} {
		for _, op := range []Op{OpJmp8, OpPushI8} {
			if _, err := ZVM32.Encode(Inst{Op: op, Imm: imm}); err == nil {
				t.Errorf("%s imm=%d: out-of-range immediate accepted", opTable[op].name, imm)
			}
		}
		if _, err := ZVM32.Encode(Inst{Op: OpJcc8, Cc: CcZ, Imm: imm}); err == nil {
			t.Errorf("jcc.s imm=%d: out-of-range immediate accepted", imm)
		}
	}
}

// TestEncodeRejectsMalformed covers the encoder's error taxonomy per
// operand field.
func TestEncodeRejectsMalformed(t *testing.T) {
	bad := []struct {
		name string
		in   Inst
	}{
		{"invalid op", Inst{Op: OpInvalid}},
		{"op past table", Inst{Op: opMax}},
		{"rd out of range", Inst{Op: OpPush, Rd: NumRegs}},
		{"rs out of range", Inst{Op: OpAdd, Rd: 0, Rs: NumRegs}},
		{"mem rd out of range", Inst{Op: OpLoad, Rd: NumRegs, Rs: 0}},
		{"mem rs out of range", Inst{Op: OpStore, Rd: 0, Rs: 255}},
		{"bad cc short", Inst{Op: OpJcc8, Cc: 0x0}},
		{"bad cc long", Inst{Op: OpJcc32, Cc: 0x7}},
		{"regimm8 overflow", Inst{Op: OpAddI8, Rd: 0, Imm: 128}},
		{"regimm8 underflow", Inst{Op: OpShlI, Rd: 0, Imm: -129}},
	}
	for _, tt := range bad {
		t.Run(tt.name, func(t *testing.T) {
			if b, err := ZVM32.Encode(tt.in); err == nil {
				t.Fatalf("accepted as % x", b)
			}
		})
	}
}

// TestDecodeTruncation feeds every defined encoding to the decoder one
// byte short of each prefix length: all must answer ErrTruncated (never
// a partial instruction, never a panic).
func TestDecodeTruncation(t *testing.T) {
	for op := Op(1); op < opMax; op++ {
		info := opTable[op]
		in := Inst{Op: op}
		if info.form == fCc8 || info.form == fCc32 {
			in.Cc = CcZ
		}
		enc, err := ZVM32.Encode(in)
		if err != nil {
			t.Fatalf("%s: %v", info.name, err)
		}
		for n := 0; n < len(enc); n++ {
			if _, err := ZVM32.Decode(enc[:n], 0); err == nil {
				t.Errorf("%s: decoding %d of %d bytes succeeded", info.name, n, len(enc))
			}
		}
	}
}

// TestDecodeRejectsBadRegisterBytes: encodings whose register byte is
// >= NumRegs are data, not code, and must fail with ErrBadReg.
func TestDecodeRejectsBadRegisterBytes(t *testing.T) {
	cases := [][]byte{
		{0x51, NumRegs},                // push r16
		{0x01, NumRegs, 0},             // add r16, r0
		{0x01, 0, NumRegs},             // add r0, r16
		{0xB8, 0xFF, 0, 0, 0, 0},       // movi r255
		{0x8B, NumRegs, 0, 0, 0, 0, 0}, // load r16
		{0x8B, 0, NumRegs, 0, 0, 0, 0}, // load base r16
	}
	for _, b := range cases {
		if in, err := ZVM32.Decode(b, 0); err == nil {
			t.Errorf("% x: decoded as %+v, want register error", b, in)
		}
	}
}

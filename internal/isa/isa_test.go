package isa

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTripTable(t *testing.T) {
	tests := []struct {
		name string
		in   Inst
		len  int
	}{
		{"nop", Inst{Op: OpNop}, 1},
		{"hlt", Inst{Op: OpHlt}, 1},
		{"ret", Inst{Op: OpRet}, 1},
		{"syscall", Inst{Op: OpSyscall}, 1},
		{"push", Inst{Op: OpPush, Rd: 3}, 2},
		{"pop sp", Inst{Op: OpPop, Rd: SP}, 2},
		{"jmpr", Inst{Op: OpJmpR, Rd: 7}, 2},
		{"callr", Inst{Op: OpCallR, Rd: 0}, 2},
		{"inc", Inst{Op: OpInc, Rd: 9}, 2},
		{"dec", Inst{Op: OpDec, Rd: 9}, 2},
		{"not", Inst{Op: OpNot, Rd: 1}, 2},
		{"push8", Inst{Op: OpPushI8, Imm: -5}, 2},
		{"pushi", Inst{Op: OpPushI32, Imm: 0x12345678}, 5},
		{"jmp.s", Inst{Op: OpJmp8, Imm: -128}, 2},
		{"jmp", Inst{Op: OpJmp32, Imm: 1 << 20}, 5},
		{"call", Inst{Op: OpCall, Imm: -42}, 5},
		{"jz.s", Inst{Op: OpJcc8, Cc: CcZ, Imm: 127}, 2},
		{"jg", Inst{Op: OpJcc32, Cc: CcG, Imm: -100000}, 6},
		{"add", Inst{Op: OpAdd, Rd: 1, Rs: 2}, 3},
		{"cmp", Inst{Op: OpCmp, Rd: 14, Rs: 15}, 3},
		{"mov", Inst{Op: OpMov, Rd: 0, Rs: 15}, 3},
		{"addi8", Inst{Op: OpAddI8, Rd: 15, Imm: -4}, 3},
		{"shli", Inst{Op: OpShlI, Rd: 2, Imm: 5}, 3},
		{"movi", Inst{Op: OpMovI, Rd: 4, Imm: -1}, 6},
		{"cmpi", Inst{Op: OpCmpI, Rd: 4, Imm: 1000}, 6},
		{"lea", Inst{Op: OpLea, Rd: 6, Imm: 0x400}, 6},
		{"loadpc", Inst{Op: OpLoadPC, Rd: 6, Imm: -0x400}, 6},
		{"load", Inst{Op: OpLoad, Rd: 1, Rs: 2, Imm: 64}, 7},
		{"loadb", Inst{Op: OpLoadB, Rd: 1, Rs: 2, Imm: -1}, 7},
		{"store", Inst{Op: OpStore, Rd: 3, Rs: 4, Imm: 8}, 7},
		{"storeb", Inst{Op: OpStoreB, Rd: 3, Rs: 4, Imm: 0}, 7},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			b, err := ZVM32.Encode(tt.in)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			if len(b) != tt.len {
				t.Fatalf("encoded length = %d, want %d", len(b), tt.len)
			}
			if got := ZVM32.InstLen(tt.in); got != tt.len {
				t.Fatalf("Len() = %d, want %d", got, tt.len)
			}
			out, err := ZVM32.Decode(b, 0)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if out != tt.in {
				t.Fatalf("round trip: got %+v, want %+v", out, tt.in)
			}
		})
	}
}

func TestSledOpcodeBytes(t *testing.T) {
	// The paper's sled construction depends on these exact byte values.
	enc := func(in Inst) []byte {
		b, err := ZVM32.Encode(in)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if b := enc(Inst{Op: OpPushI32, Imm: 0}); b[0] != 0x68 {
		t.Errorf("pushi opcode = %#x, want 0x68", b[0])
	}
	if b := enc(Inst{Op: OpNop}); b[0] != 0x90 {
		t.Errorf("nop opcode = %#x, want 0x90", b[0])
	}
	if b := enc(Inst{Op: OpHlt}); b[0] != 0xf4 {
		t.Errorf("hlt opcode = %#x, want 0xf4", b[0])
	}
	// A run of 0x68s followed by four 0x90s decodes validly from every
	// 0x68 offset and re-synchronizes before the trailing byte.
	sled := []byte{0x68, 0x68, 0x68, 0x68, 0x90, 0x90, 0x90, 0x90, 0xf4}
	for entry := 0; entry < 4; entry++ {
		pc := entry
		for pc < len(sled)-1 {
			in, err := ZVM32.Decode(sled[pc:], 0)
			if err != nil {
				t.Fatalf("entry %d: decode at %d: %v", entry, pc, err)
			}
			pc += ZVM32.InstLen(in)
		}
		if pc != len(sled)-1 {
			t.Errorf("entry %d: resynchronized at %d, want %d", entry, pc, len(sled)-1)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	tests := []struct {
		name string
		b    []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"truncated movi", []byte{0xB8, 0x01}, ErrTruncated},
		{"truncated jcc32", []byte{0x0F}, ErrTruncated},
		{"bad opcode", []byte{0x00}, ErrBadOpcode},
		{"bad second byte", []byte{0x0F, 0x12, 0, 0, 0, 0}, ErrBadOpcode},
		{"bad cc32", []byte{0x0F, 0x81, 0, 0, 0, 0}, ErrBadCc},
		{"bad reg", []byte{0x51, 0x20}, ErrBadReg},
		{"bad mem reg", []byte{0x8B, 0x01, 0x99, 0, 0, 0, 0}, ErrBadReg},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ZVM32.Decode(tt.b, 0); !errors.Is(err, tt.want) {
				t.Fatalf("ZVM32.Decode(% x) error = %v, want %v", tt.b, err, tt.want)
			}
		})
	}
}

func TestEncodeErrors(t *testing.T) {
	tests := []struct {
		name string
		in   Inst
	}{
		{"invalid op", Inst{Op: OpInvalid}},
		{"out of range op", Inst{Op: opMax}},
		{"bad reg", Inst{Op: OpPush, Rd: 16}},
		{"bad rs", Inst{Op: OpAdd, Rd: 0, Rs: 16}},
		{"imm8 overflow", Inst{Op: OpPushI8, Imm: 200}},
		{"rel8 overflow", Inst{Op: OpJmp8, Imm: -129}},
		{"bad cc", Inst{Op: OpJcc8, Cc: 0}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ZVM32.Encode(tt.in); err == nil {
				t.Fatalf("ZVM32.Encode(%+v) succeeded, want error", tt.in)
			}
		})
	}
}

func TestBranchPredicates(t *testing.T) {
	tests := []struct {
		in                                   Inst
		branch, direct, indirect, call, fall bool
	}{
		{Inst{Op: OpNop}, false, false, false, false, true},
		{Inst{Op: OpJmp8}, true, true, false, false, false},
		{Inst{Op: OpJmp32}, true, true, false, false, false},
		{Inst{Op: OpJcc8, Cc: CcZ}, true, true, false, false, true},
		{Inst{Op: OpJcc32, Cc: CcZ}, true, true, false, false, true},
		{Inst{Op: OpCall}, true, true, false, true, true},
		{Inst{Op: OpCallR}, true, false, true, true, true},
		{Inst{Op: OpJmpR}, true, false, true, false, false},
		{Inst{Op: OpRet}, true, false, true, false, false},
		{Inst{Op: OpHlt}, false, false, false, false, false},
		{Inst{Op: OpAdd}, false, false, false, false, true},
	}
	for _, tt := range tests {
		in := tt.in
		if got := in.IsBranch(); got != tt.branch {
			t.Errorf("%s: IsBranch = %v, want %v", in.Op.Name(), got, tt.branch)
		}
		if got := in.IsDirectBranch(); got != tt.direct {
			t.Errorf("%s: IsDirectBranch = %v, want %v", in.Op.Name(), got, tt.direct)
		}
		if got := in.IsIndirectBranch(); got != tt.indirect {
			t.Errorf("%s: IsIndirectBranch = %v, want %v", in.Op.Name(), got, tt.indirect)
		}
		if got := in.IsCall(); got != tt.call {
			t.Errorf("%s: IsCall = %v, want %v", in.Op.Name(), got, tt.call)
		}
		if got := in.HasFallthrough(); got != tt.fall {
			t.Errorf("%s: HasFallthrough = %v, want %v", in.Op.Name(), got, tt.fall)
		}
	}
}

func TestTargetAddr(t *testing.T) {
	in := Inst{Op: OpJmp32, Imm: 0x10}
	got, ok := ZVM32.TargetAddr(in, 0x1000)
	if !ok || got != 0x1000+5+0x10 {
		t.Fatalf("TargetAddr = %#x, %v; want %#x, true", got, ok, 0x1000+5+0x10)
	}
	in = Inst{Op: OpJmp8, Imm: -2} // self-branch
	got, ok = ZVM32.TargetAddr(in, 0x1000)
	if !ok || got != 0x1000 {
		t.Fatalf("self jmp TargetAddr = %#x, %v; want 0x1000, true", got, ok)
	}
	if _, ok := ZVM32.TargetAddr(Inst{Op: OpRet}, 0); ok {
		t.Fatal("ret should have no static target")
	}
	if _, ok := ZVM32.TargetAddr(Inst{Op: OpLoad}, 0); ok {
		t.Fatal("load should have no static target")
	}
}

func TestCcNegate(t *testing.T) {
	pairs := [][2]Cc{{CcZ, CcNZ}, {CcL, CcGE}, {CcLE, CcG}, {CcB, CcAE}}
	for _, p := range pairs {
		if p[0].Negate() != p[1] || p[1].Negate() != p[0] {
			t.Errorf("Negate(%s) != %s", CcName(p[0]), CcName(p[1]))
		}
	}
}

func TestStringRendering(t *testing.T) {
	tests := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: OpNop}, "nop"},
		{Inst{Op: OpPush, Rd: SP}, "push sp"},
		{Inst{Op: OpMovI, Rd: 2, Imm: 7}, "movi r2, 7"},
		{Inst{Op: OpJcc8, Cc: CcNZ, Imm: 4}, "jnz.s +4"},
		{Inst{Op: OpJcc32, Cc: CcGE, Imm: -4}, "jge -4"},
		{Inst{Op: OpLoad, Rd: 1, Rs: 2, Imm: 8}, "load r1, [r2+8]"},
		{Inst{Op: OpStore, Rd: 1, Rs: 2, Imm: -8}, "store [r1-8], r2"},
		{Inst{}, "(invalid)"},
	}
	for _, tt := range tests {
		if got := tt.in.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
	if !strings.Contains((Inst{Op: OpLea, Rd: 0, Imm: 16}).String(), "lea") {
		t.Error("lea String missing mnemonic")
	}
}

// randomInst produces a uniformly random *valid* instruction for
// property-based tests.
func randomInst(r *rand.Rand) Inst {
	ccs := []Cc{CcB, CcAE, CcZ, CcNZ, CcL, CcGE, CcLE, CcG}
	for {
		op := Op(1 + r.Intn(int(opMax)-1))
		if !op.Valid() {
			continue
		}
		in := Inst{
			Op:  op,
			Rd:  uint8(r.Intn(NumRegs)),
			Rs:  uint8(r.Intn(NumRegs)),
			Imm: int32(r.Uint32()),
		}
		switch opTable[op].form {
		case fNone:
			in.Rd, in.Rs, in.Imm = 0, 0, 0
		case fReg:
			in.Rs, in.Imm = 0, 0
		case fRegReg:
			in.Imm = 0
		case fImm8, fRel8:
			in.Rd, in.Rs = 0, 0
			in.Imm = int32(int8(in.Imm))
		case fRegImm8:
			in.Rs = 0
			in.Imm = int32(int8(in.Imm))
		case fImm32, fRel32:
			in.Rd, in.Rs = 0, 0
		case fRegImm32, fRegRel32:
			in.Rs = 0
		case fCc8:
			in.Cc = ccs[r.Intn(len(ccs))]
			in.Rd, in.Rs = 0, 0
			in.Imm = int32(int8(in.Imm))
		case fCc32:
			in.Cc = ccs[r.Intn(len(ccs))]
			in.Rd, in.Rs = 0, 0
		}
		return in
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 50; i++ {
			in := randomInst(r)
			b, err := ZVM32.Encode(in)
			if err != nil {
				t.Logf("encode %+v: %v", in, err)
				return false
			}
			out, err := ZVM32.Decode(b, 0)
			if err != nil || out != in {
				t.Logf("round trip %+v -> % x -> %+v (%v)", in, b, out, err)
				return false
			}
			// Decoding with trailing garbage must give the same result.
			out2, err := ZVM32.Decode(append(append([]byte{}, b...), 0xAA, 0xBB), 0)
			if err != nil || out2 != in {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDecodeNeverPanicsAndLenConsistent(t *testing.T) {
	f := func(raw []byte) bool {
		in, err := ZVM32.Decode(raw, 0)
		if err != nil {
			return true
		}
		// A successful decode must re-encode to the identical bytes.
		enc, err := ZVM32.Encode(in)
		if err != nil {
			return false
		}
		return len(enc) == ZVM32.InstLen(in) && bytes.Equal(enc, raw[:len(enc)])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestOpcodeBytesUnique(t *testing.T) {
	seen := map[uint8]Op{}
	for op := Op(1); op < opMax; op++ {
		info := opTable[op]
		if info.form == 0 || info.form == fCc8 || info.form == fCc32 {
			continue
		}
		if prev, dup := seen[info.byte]; dup {
			t.Errorf("opcode byte %#x used by both %s and %s", info.byte, prev.Name(), op.Name())
		}
		seen[info.byte] = op
		if info.byte&0xF0 == 0x70 {
			t.Errorf("opcode byte %#x of %s collides with Jcc8 space", info.byte, op.Name())
		}
	}
}

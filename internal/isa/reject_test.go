package isa

import (
	"errors"
	"fmt"
	"testing"
)

// TestDecodeRejectNoAlloc pins the zero-allocation rejection contract:
// inference decodes at every text offset and most of them are rejected,
// so a rejected decode must not allocate. It decodes every 1- and 2-byte
// input under ZVM-32, through the package codec and through Arch.
func TestDecodeRejectNoAlloc(t *testing.T) {
	inputs := make([][]byte, 0, 256+256*256)
	for a := 0; a < 256; a++ {
		inputs = append(inputs, []byte{byte(a)})
		for b := 0; b < 256; b++ {
			inputs = append(inputs, []byte{byte(a), byte(b)})
		}
	}
	rejected := 0
	for _, in := range inputs {
		if _, err := Decode(in); err != nil {
			rejected++
		}
	}
	if rejected < len(inputs)/2 {
		t.Fatalf("only %d of %d short inputs rejected; the sweep lost its point", rejected, len(inputs))
	}
	if n := testing.AllocsPerRun(5, func() {
		for _, in := range inputs {
			_, _ = Decode(in)
		}
	}); n != 0 {
		t.Errorf("Decode: %v allocs per sweep, want 0", n)
	}
	if n := testing.AllocsPerRun(5, func() {
		for _, in := range inputs {
			_, _ = ZVM32.Decode(in, 0)
		}
	}); n != 0 {
		t.Errorf("ZVM32.Decode: %v allocs per sweep, want 0", n)
	}
	// ZVM-64 shares the opcode and condition tables.
	word := []byte{0x00, 0x00, 0x00, 0x00}
	if _, err := ZVM64.Decode(word, 0); !errors.Is(err, ErrBadOpcode) {
		t.Fatalf("ZVM64.Decode(% x) = %v, want ErrBadOpcode", word, err)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = ZVM64.Decode(word, 0) }); n != 0 {
		t.Errorf("ZVM64.Decode bad opcode: %v allocs, want 0", n)
	}
}

// TestDecodeRejectErrorsRender checks each precomputed rejection against
// the fmt.Errorf it replaces, byte for byte, and that it still wraps its
// sentinel.
func TestDecodeRejectErrorsRender(t *testing.T) {
	tables := []struct {
		name     string
		errs     []error
		sentinel error
		render   func(v int) error
	}{
		{"opcode", errBadOpcodeByte[:], ErrBadOpcode,
			func(v int) error { return fmt.Errorf("%w: %02x", ErrBadOpcode, byte(v)) }},
		{"0f opcode", errBadOpcode0F[:], ErrBadOpcode,
			func(v int) error { return fmt.Errorf("%w: 0f %02x", ErrBadOpcode, byte(v)) }},
		{"register", errBadRegByte[:], ErrBadReg,
			func(v int) error { return fmt.Errorf("%w: r%d", ErrBadReg, byte(v)) }},
		{"condition", errBadCcCode[:], ErrBadCc,
			func(v int) error { return fmt.Errorf("%w: cc %x", ErrBadCc, Cc(v)) }},
	}
	for _, tt := range tables {
		for v, err := range tt.errs {
			if got, want := err.Error(), tt.render(v).Error(); got != want {
				t.Errorf("%s[%#x] = %q, want %q", tt.name, v, got, want)
			}
			if !errors.Is(err, tt.sentinel) {
				t.Errorf("%s[%#x] does not wrap %v", tt.name, v, tt.sentinel)
			}
		}
	}

	// And through Decode, one input per rejection form.
	decodes := []struct {
		b    []byte
		want string
	}{
		{[]byte{0x00}, "isa: unknown opcode: 00"},
		{[]byte{0xff, 0x01}, "isa: unknown opcode: ff"},
		{[]byte{0x0f, 0x12, 0, 0, 0, 0}, "isa: unknown opcode: 0f 12"},
		{[]byte{0x0f, 0x81, 0, 0, 0, 0}, "isa: unknown condition code: cc 1"},
		{[]byte{0x51, 0x20}, "isa: register index out of range: r32"},
		{[]byte{0x8b, 0x01, 0x99, 0, 0, 0, 0}, "isa: register index out of range: r153"},
		{[]byte{0x01, 0xff, 0x99}, "isa: register index out of range: r255"},
	}
	for _, tt := range decodes {
		if _, err := Decode(tt.b); err == nil || err.Error() != tt.want {
			t.Errorf("Decode(% x) error = %v, want %q", tt.b, err, tt.want)
		}
	}
}

// TestCcTable pins ValidCc/CcName over the whole Cc range, including
// values past the 16-entry name table.
func TestCcTable(t *testing.T) {
	valid := map[Cc]string{CcB: "b", CcAE: "ae", CcZ: "z", CcNZ: "nz", CcL: "l", CcGE: "ge", CcLE: "le", CcG: "g"}
	for v := 0; v < 256; v++ {
		cc := Cc(v)
		name, ok := valid[cc]
		if ValidCc(cc) != ok {
			t.Errorf("ValidCc(%#x) = %v, want %v", v, !ok, ok)
		}
		if !ok {
			name = "?"
		}
		if got := CcName(cc); got != name {
			t.Errorf("CcName(%#x) = %q, want %q", v, got, name)
		}
	}
}

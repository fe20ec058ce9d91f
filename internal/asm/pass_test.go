package asm_test

import (
	"errors"
	"strings"
	"testing"
	"unsafe"

	"zipr/internal/asm"
	"zipr/internal/synth"
)

// TestPass2ErrorLines checks that errors found only once labels resolve
// carry their statement's line, and that every pass-1 error is reported
// before them, as a second parse of the whole source would.
func TestPass2ErrorLines(t *testing.T) {
	tests := []struct {
		name, src string
		line      int
	}{
		{"undefined label", ".text\nmain:\n    nop\n    jmp nowhere\n    ret\n", 4},
		{"undefined .word label", ".text\nmain: ret\n.data\n.word 1, nowhere\n", 4},
		{"bad register", ".text\nmain: ret\n    mov r1, r16\n", 3},
		{"pass 1 first", ".text\nmain: jmp nowhere\n    ret\n    frob r1\n", 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := asm.Assemble(tt.src)
			var se *asm.SyntaxError
			if !errors.As(err, &se) {
				t.Fatalf("error %v, want *SyntaxError", err)
			}
			if se.Line != tt.line {
				t.Fatalf("error %v on line %d, want line %d", err, se.Line, tt.line)
			}
		})
	}
}

// maxAllocsPerLine bounds the assembler's allocations per source line.
// Pass 1 slices operands out of the source and pass 2 encodes in place,
// so what remains is buffer and table growth. Re-splitting and
// re-parsing every line in both passes made 11.7 per line.
const maxAllocsPerLine = 0.01

// TestAssembleAllocs checks that assembling a mid-size challenge binary
// allocates far less than once per source line.
func TestAssembleAllocs(t *testing.T) {
	seed, p := synth.CBProfile(10)
	src := synth.Generate(seed, p)
	lines := strings.Count(src, "\n") + 1
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := asm.Assemble(src); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d lines, %v allocs", lines, allocs)
	if allocs > maxAllocsPerLine*float64(lines) {
		t.Errorf("Assemble made %v allocs for %d lines, want <= %v per line", allocs, lines, maxAllocsPerLine)
	}
}

// inSource reports whether s's bytes lie inside src's.
func inSource(s, src string) bool {
	if s == "" || src == "" {
		return false
	}
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	base := uintptr(unsafe.Pointer(unsafe.StringData(src)))
	return p >= base && p < base+uintptr(len(src))
}

// TestBinaryDoesNotPinSource checks that the names a binary keeps are
// copies: a substring would keep the whole source reachable (4.3 MB for
// the library, behind its 1 MB image).
func TestBinaryDoesNotPinSource(t *testing.T) {
	src := ".type exec\n.lib \"mathlib\"\n.import lib_triple, got\n" +
		".text\nmain: ret\n.export entry = main\n.data\ngot: .word 0\n"
	bin, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{bin.Exports[0].Name, bin.Imports[0].Name, bin.Libs[0]}
	for _, name := range names {
		if inSource(name, src) {
			t.Errorf("name %q points into the source", name)
		}
	}
}

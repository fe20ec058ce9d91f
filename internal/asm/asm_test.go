package asm

import (
	"strings"
	"testing"

	"zipr/internal/binfmt"
	"zipr/internal/isa"
	"zipr/internal/loader"
	"zipr/internal/vm"
)

// run assembles src, loads it (with optional libs), and executes it.
func run(t *testing.T, src string, stdin string, libs map[string]*binfmt.Binary) vm.Result {
	t.Helper()
	bin, err := Assemble(src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	m := vm.New(vm.WithStdin(strings.NewReader(stdin)), vm.WithMaxSteps(1_000_000))
	if err := loader.Load(m, bin, libs); err != nil {
		t.Fatalf("Load: %v", err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestHelloWorld(t *testing.T) {
	src := `
.text 0x00100000
main:
    lea r2, msg
    movi r0, 2      ; transmit
    movi r1, 1
    movi r3, 6
    syscall
    movi r0, 1      ; terminate
    movi r1, 0
    syscall
msg: .asciz "hello"
`
	res := run(t, src, "", nil)
	if string(res.Output) != "hello\x00" {
		t.Fatalf("output = %q", res.Output)
	}
	if res.ExitCode != 0 {
		t.Fatalf("exit = %d", res.ExitCode)
	}
}

func TestLoopsBranchesAndData(t *testing.T) {
	// Sum the .word array using a counted loop; exit(sum).
	src := `
.text 0x00100000
.entry start
start:
    movi r2, 0          ; sum
    movi r3, 0          ; i
    lea  r4, arr_ptr
    load r4, [r4]       ; r4 = &arr (via data pointer)
loop:
    cmpi8 r3, 4
    jge done
    mov r5, r3
    shli r5, 2
    add r5, r4
    load r6, [r5]
    add r2, r6
    inc r3
    jmp loop
done:
    mov r1, r2
    movi r0, 1
    syscall
.data 0x00200000
arr: .word 10, 20, 30, 40
arr_ptr: .word arr
`
	res := run(t, src, "", nil)
	if res.ExitCode != 100 {
		t.Fatalf("exit = %d, want 100", res.ExitCode)
	}
}

func TestShortBranchAndLabelArith(t *testing.T) {
	src := `
.text 0x00100000
main:
    movi r2, 3
l:  dec r2
    jnz.s l
    lea r3, tbl+4
    load r1, [r3]
    movi r0, 1
    syscall
.align 4
tbl: .word 7, 9
`
	res := run(t, src, "", nil)
	if res.ExitCode != 9 {
		t.Fatalf("exit = %d, want 9", res.ExitCode)
	}
}

func TestCallAndStack(t *testing.T) {
	src := `
.text 0x00100000
main:
    movi r1, 5
    call double
    call double
    movi r0, 1
    syscall          ; exit r1 = 20
double:
    add r1, r1
    ret
`
	res := run(t, src, "", nil)
	if res.ExitCode != 20 {
		t.Fatalf("exit = %d, want 20", res.ExitCode)
	}
}

func TestJumpTableViaData(t *testing.T) {
	src := `
.text 0x00100000
main:
    movi r2, 2           ; select case 2
    shli r2, 2
    movi r3, jumptab
    add r3, r2
    load r4, [r3]
    jmpr r4
case0: movi r1, 100
    jmp out
case1: movi r1, 101
    jmp out
case2: movi r1, 102
    jmp out
out:
    movi r0, 1
    syscall
.data 0x00200000
jumptab: .word case0, case1, case2
`
	res := run(t, src, "", nil)
	if res.ExitCode != 102 {
		t.Fatalf("exit = %d, want 102", res.ExitCode)
	}
}

func TestEcho(t *testing.T) {
	src := `
.text 0x00100000
main:
    movi r0, 3       ; receive
    movi r1, 0
    movi r2, buf
    movi r3, 8
    syscall
    mov r3, r0       ; bytes read
    movi r0, 2       ; transmit
    movi r1, 1
    movi r2, buf
    syscall
    movi r0, 1
    movi r1, 0
    syscall
.data 0x00200000
buf: .space 16
`
	res := run(t, src, "abcdefgh", nil)
	if string(res.Output) != "abcdefgh" {
		t.Fatalf("output = %q", res.Output)
	}
}

func TestImportExportAcrossLibrary(t *testing.T) {
	libSrc := `
.type lib
.text 0x00700000
triple:
    mov r2, r1
    add r1, r2
    add r1, r2
    ret
.export lib_triple = triple
`
	lib, err := Assemble(libSrc)
	if err != nil {
		t.Fatalf("assemble lib: %v", err)
	}
	exeSrc := `
.type exec
.lib "mathlib"
.import lib_triple, got_triple
.text 0x00100000
main:
    movi r1, 7
    movi r5, got_triple
    load r5, [r5]
    callr r5
    movi r0, 1
    syscall
.data 0x00200000
got_triple: .word 0
`
	res := run(t, exeSrc, "", map[string]*binfmt.Binary{"mathlib": lib})
	if res.ExitCode != 21 {
		t.Fatalf("exit = %d, want 21", res.ExitCode)
	}
}

func TestDirectivesByteSpaceAlign(t *testing.T) {
	bin, err := Assemble(`
.text 0x00100000
main: ret
.data 0x00200000
a: .byte 1, 2, 0xff
   .align 8
b: .space 3
c: .asciz "x\n\t\"\\\0"
`)
	if err != nil {
		t.Fatal(err)
	}
	d := bin.DataSeg()
	if d == nil {
		t.Fatal("no data segment")
	}
	if d.Data[0] != 1 || d.Data[1] != 2 || d.Data[2] != 0xff {
		t.Fatalf(".byte wrong: % x", d.Data[:3])
	}
	// b at offset 8 after align.
	want := []byte{'x', '\n', '\t', '"', '\\', 0, 0}
	got := d.Data[11 : 11+len(want)]
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf(".asciz wrong at %d: % x want % x", i, got, want)
		}
	}
}

func TestErrors(t *testing.T) {
	tests := []struct {
		name, src, substr string
	}{
		{"unknown mnemonic", ".text\nmain: frob r1", "unknown mnemonic"},
		{"undefined label", ".text\nmain: jmp nowhere", "undefined label"},
		{"duplicate label", ".text\nx: nop\nx: nop\nmain: ret", "duplicate"},
		{"bad register", ".text\nmain: push r99", "bad register"},
		{"short out of range", ".text\nmain: jmp.s far\n.space 600\nfar: ret", "out of range"},
		{"no text", ".data\nx: .byte 1", "empty text"},
		{"no entry", ".text\nstart: ret", "entry symbol"},
		{"bad directive", ".text\n.bogus 4\nmain: ret", "unknown directive"},
		{"arity", ".text\nmain: add r1", "expected 2 operand"},
		{"label outside section", "x: nop", "outside any section"},
		{"unaligned base", ".text 0x100001\nmain: ret", "page-aligned"},
		{"bad string", ".text\nmain: ret\n.data\ns: .asciz nope", "bad string"},
		{"bad escape", ".text\nmain: ret\n.data\ns: .asciz \"\\q\"", "unknown escape"},
		{"byte range", ".text\nmain: ret\n.data\nb: .byte 300", "out of range"},
		{"import arity", ".import onlyname\n.text\nmain: ret", "bad .import"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Assemble(tt.src)
			if err == nil {
				t.Fatal("Assemble succeeded, want error")
			}
			if !strings.Contains(err.Error(), tt.substr) {
				t.Fatalf("error %q does not contain %q", err, tt.substr)
			}
		})
	}
}

func TestErrorLineNumbers(t *testing.T) {
	_, err := Assemble(".text\nmain: ret\nnop\nbadmn r1\n")
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type %T, want *SyntaxError", err)
	}
	if se.Line != 4 {
		t.Fatalf("error line = %d, want 4", se.Line)
	}
}

func TestCommentsDoNotBreakStrings(t *testing.T) {
	bin := MustAssemble(`
.text 0x00100000
main: ret             ; trailing comment
.data 0x00200000
s: .asciz "a;b#c"     ; comment after string
`)
	d := bin.DataSeg().Data
	if string(d[:6]) != "a;b#c\x00" {
		t.Fatalf("string data = %q", d[:6])
	}
}

func TestPass1Pass2SizesAgree(t *testing.T) {
	// Every mnemonic once; pass 1 reserved sizes must equal pass 2
	// encodings, or labels after the code would shift.
	src := `
.text 0x00100000
main:
    nop
    syscall
    push r1
    pop r2
    jmpr r3
    callr r4
    inc r5
    dec r6
    not r7
    push8 -3
    pushi end
    jmp end
    jmp.s end2
    call end
    jz end
    jnz.s end2
    add r1, r2
    cmp r1, r2
    mov r1, r2
    addi8 r1, 4
    shli r1, 2
    movi r1, end
    cmpi r1, 55
    lea r1, end
    loadpc r1, w
    load r1, [r2+4]
    storeb [r2-4], r1
end2:
    nop
end:
    movi r0, 1
    movi r1, 0
    syscall
w: .word 5
`
	bin, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	// Decode the whole text linearly; every instruction must decode until
	// the trailing data word.
	text := bin.Text().Data
	off := 0
	for off < len(text)-4 {
		in, err := isa.ZVM32.Decode(text[off:], bin.Text().VAddr+uint32(off))
		if err != nil {
			t.Fatalf("decode at %d: %v", off, err)
		}
		off += isa.ZVM32.InstLen(in)
	}
	if off != len(text)-4 {
		t.Fatalf("resync mismatch: off=%d len=%d", off, len(text))
	}
}

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

const helloSrc = `
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

func TestHelloWorld(t *testing.T) {
	res := run(t, helloSrc, "", nil)
	if string(res.Output) != "hello\x00" {
		t.Fatalf("output = %q", res.Output)
	}
	if res.ExitCode != 0 {
		t.Fatalf("exit = %d", res.ExitCode)
	}
}

// loopSrc sums the .word array using a counted loop; exit(sum).
const loopSrc = `
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

func TestLoopsBranchesAndData(t *testing.T) {
	res := run(t, loopSrc, "", nil)
	if res.ExitCode != 100 {
		t.Fatalf("exit = %d, want 100", res.ExitCode)
	}
}

const shortBranchSrc = `
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

func TestShortBranchAndLabelArith(t *testing.T) {
	res := run(t, shortBranchSrc, "", nil)
	if res.ExitCode != 9 {
		t.Fatalf("exit = %d, want 9", res.ExitCode)
	}
}

const callSrc = `
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

func TestCallAndStack(t *testing.T) {
	res := run(t, callSrc, "", nil)
	if res.ExitCode != 20 {
		t.Fatalf("exit = %d, want 20", res.ExitCode)
	}
}

const jumpTableSrc = `
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

func TestJumpTableViaData(t *testing.T) {
	res := run(t, jumpTableSrc, "", nil)
	if res.ExitCode != 102 {
		t.Fatalf("exit = %d, want 102", res.ExitCode)
	}
}

const echoSrc = `
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

func TestEcho(t *testing.T) {
	res := run(t, echoSrc, "abcdefgh", nil)
	if string(res.Output) != "abcdefgh" {
		t.Fatalf("output = %q", res.Output)
	}
}

const mathLibSrc = `
.type lib
.text 0x00700000
triple:
    mov r2, r1
    add r1, r2
    add r1, r2
    ret
.export lib_triple = triple
`

const mathExeSrc = `
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

func TestImportExportAcrossLibrary(t *testing.T) {
	lib, err := Assemble(mathLibSrc)
	if err != nil {
		t.Fatalf("assemble lib: %v", err)
	}
	res := run(t, mathExeSrc, "", map[string]*binfmt.Binary{"mathlib": lib})
	if res.ExitCode != 21 {
		t.Fatalf("exit = %d, want 21", res.ExitCode)
	}
}

const directivesSrc = `
.text 0x00100000
main: ret
.data 0x00200000
a: .byte 1, 2, 0xff
   .align 8
b: .space 3
c: .asciz "x\n\t\"\\\0"
`

func TestDirectivesByteSpaceAlign(t *testing.T) {
	bin, err := Assemble(directivesSrc)
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

// errorCases are sources the assembler must reject, each with its
// exact error text.
var errorCases = []struct {
	name, src, msg string
}{
	{"unknown mnemonic", ".text\nmain: frob r1", "asm: line 2: unknown mnemonic \"frob\""},
	{"undefined label", ".text\nmain: jmp nowhere", "asm: line 2: undefined label \"nowhere\""},
	{"duplicate label", ".text\nx: nop\nx: nop\nmain: ret", "asm: line 3: duplicate label \"x\""},
	{"bad register", ".text\nmain: push r99", "asm: line 2: bad register \"r99\""},
	{"short out of range", ".text\nmain: jmp.s far\n.space 600\nfar: ret", "asm: line 2: short branch to \"far\" out of range (disp 600)"},
	{"no text", ".data\nx: .byte 1", "asm: empty text section"},
	{"no entry", ".text\nstart: ret", "asm: entry symbol \"main\" undefined"},
	{"bad directive", ".text\n.bogus 4\nmain: ret", "asm: line 2: unknown directive .bogus"},
	{"arity", ".text\nmain: add r1", "asm: line 2: expected 2 operand(s), got 1"},
	{"label outside section", "x: nop", "asm: line 1: label \"x\" outside any section"},
	{"unaligned base", ".text 0x100001\nmain: ret", "asm: line 1: section base 0x100001 not page-aligned"},
	{"bad string", ".text\nmain: ret\n.data\ns: .asciz nope", "asm: line 4: bad string literal nope"},
	{"bad escape", ".text\nmain: ret\n.data\ns: .asciz \"\\q\"", "asm: line 4: unknown escape \\q"},
	{"byte range", ".text\nmain: ret\n.data\nb: .byte 300", "asm: line 4: .byte operand 300 out of range"},
	{"import arity", ".import onlyname\n.text\nmain: ret", "asm: line 1: bad .import \"onlyname\" (want name, gotlabel)"},
	{"register trailing garbage", ".text\nmain: push r1x", "asm: line 2: bad register \"r1x\""},
}

func TestErrors(t *testing.T) {
	for _, tt := range errorCases {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Assemble(tt.src)
			if err == nil {
				t.Fatal("Assemble succeeded, want error")
			}
			if err.Error() != tt.msg {
				t.Fatalf("error %q, want %q", err, tt.msg)
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

const commentsSrc = `
.text 0x00100000
main: ret             ; trailing comment
.data 0x00200000
s: .asciz "a;b#c"     ; comment after string
`

func TestCommentsDoNotBreakStrings(t *testing.T) {
	bin := MustAssemble(commentsSrc)
	d := bin.DataSeg().Data
	if string(d[:6]) != "a;b#c\x00" {
		t.Fatalf("string data = %q", d[:6])
	}
}

const allMnemonicsSrc = `
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

func TestPass1Pass2SizesAgree(t *testing.T) {
	// Every mnemonic once; pass 1 reserved sizes must equal pass 2
	// encodings, or labels after the code would shift.
	bin, err := Assemble(allMnemonicsSrc)
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

// stackpad: the paper's Figure-2 example transform. A vulnerable
// function's 16-byte buffer sits a fixed distance below its saved state;
// an attacker who knows the layout overflows exactly up to the canary...
// unless the rewriter has grown the frame, moving everything the exploit
// aimed at. The example shows the frame allocation instruction being
// rewritten (addi sp, -16 -> addi sp, -80), the exploit's assumptions
// breaking, and normal behavior surviving.
package main

import (
	"bytes"
	"fmt"
	"log"

	"zipr"
	"zipr/internal/asm"
	"zipr/internal/binfmt"
	"zipr/internal/isa"
	"zipr/internal/loader"
	"zipr/internal/vm"
)

const program = `
.text 0x00100000
main:
    movi r0, 3           ; read length byte + payload
    movi r1, 0
    movi r2, inbuf
    movi r3, 64
    syscall
    movi r4, inbuf
    loadb r1, [r4]       ; attacker-controlled write length
    call victim
    movi r0, 1           ; terminate(r1)
    syscall
victim:
    addi sp, -16         ; 16-byte frame: the Figure-2 "i" instruction
    mov r2, sp
    movi r3, 0x41
vloop:
    cmpi8 r1, 0
    jle vdone
    storeb [r2], r3      ; linear overflow when length > 16
    inc r2
    dec r1
    jmp vloop
vdone:
    load r1, [sp+0]      ; value derived from frame contents
    andi r1, 0xff
    addi sp, 16
    ret
.data 0x00200000
inbuf: .space 64
`

func run(bin *binfmt.Binary, input []byte) (vm.Result, error) {
	m := vm.New(vm.WithStdin(bytes.NewReader(input)), vm.WithMaxSteps(1_000_000))
	if err := loader.Load(m, bin, nil); err != nil {
		return vm.Result{}, err
	}
	return m.Run()
}

// frameAllocs scans a binary's decodable instructions for sp
// adjustments, returning the distinct negative immediates (frame sizes).
// The binaries here are built and rewritten under the default ISA.
func frameAllocs(bin *binfmt.Binary) []int32 {
	arch := isa.DefaultArch()
	var out []int32
	text := bin.Text()
	off := 0
	for off < len(text.Data) {
		in, err := arch.Decode(text.Data[off:], text.VAddr+uint32(off))
		if err != nil {
			off += int(arch.Align())
			continue
		}
		if (in.Op == isa.OpAddI || in.Op == isa.OpAddI8) && in.Rd == isa.SP && in.Imm < 0 {
			out = append(out, in.Imm)
		}
		off += arch.InstLen(in)
	}
	return out
}

func main() {
	original, err := asm.Assemble(program)
	if err != nil {
		log.Fatal(err)
	}
	padded, report, err := zipr.RewriteBinary(original.Clone(), zipr.Config{
		Transforms: []zipr.Transform{zipr.StackPad(64)},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("frame allocations before: %v\n", frameAllocs(original))
	fmt.Printf("frame allocations after:  %v   (file %+.1f%%)\n",
		frameAllocs(padded), report.SizeOverhead()*100)

	// Benign input: write 8 bytes, well inside any frame.
	benign := append([]byte{8}, bytes.Repeat([]byte{0}, 15)...)
	b1, _ := run(original, benign)
	b2, _ := run(padded, benign)
	fmt.Printf("\nbenign run: original exit=%d, padded exit=%d (identical: %v)\n",
		b1.ExitCode, b2.ExitCode, b1.ExitCode == b2.ExitCode)

	// "Exploit": write exactly 20 bytes — past the original 16-byte
	// frame (clobbering the word at [sp+16] the attacker targets), but
	// harmlessly inside the padded 80-byte frame.
	attack := append([]byte{20}, bytes.Repeat([]byte{0}, 15)...)
	a1, err1 := run(original, attack)
	a2, err2 := run(padded, attack)
	fmt.Printf("attack run: original exit=%d err=%v\n", a1.ExitCode, err1)
	fmt.Printf("attack run: padded   exit=%d err=%v\n", a2.ExitCode, err2)
	fmt.Println("\nthe overflow that escaped the original frame lands inside the")
	fmt.Println("padded frame: layout-dependent exploits break (paper Fig. 2)")
}

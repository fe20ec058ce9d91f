package asm

import (
	"bytes"
	"errors"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"zipr/internal/isa"
)

// bigReservation matches .space and .align operands; a one-line
// ".align 0x80000000" may pad 2 GiB, so inputs that ask for more than
// maxFuzzReservation bytes are skipped to keep the fuzzer's memory small.
var bigReservation = regexp.MustCompile(`\.(?:space|align)\s+([+-]?\w+)`)

const maxFuzzReservation = 1 << 16

func reservesMuch(src string) bool {
	for _, m := range bigReservation.FindAllStringSubmatch(src, -1) {
		if n, err := strconv.ParseInt(m[1], 0, 64); err == nil && n > maxFuzzReservation {
			return true
		}
	}
	return false
}

// FuzzAssemble checks the assembler's contract on arbitrary source: it
// never panics, every error is a *SyntaxError whose line lies within the
// source (or is 0 for a whole-program check), and assembling the same
// input twice gives the same image or the same error.
func FuzzAssemble(f *testing.F) {
	seeds := []string{
		helloSrc, loopSrc, shortBranchSrc, callSrc, jumpTableSrc, echoSrc,
		mathLibSrc, mathExeSrc, directivesSrc, commentsSrc, allMnemonicsSrc,
	}
	for _, tc := range errorCases {
		seeds = append(seeds, tc.src)
	}
	for _, s := range seeds {
		f.Add(s, false)
		f.Add(s, true)
	}
	f.Fuzz(func(t *testing.T, src string, zvm64 bool) {
		if reservesMuch(src) {
			t.Skip("reserves too much memory")
		}
		arch := isa.ZVM32
		if zvm64 {
			arch = isa.ZVM64
		}
		bin, err := AssembleArch(src, arch)
		bin2, err2 := AssembleArch(src, arch)
		if err != nil {
			var se *SyntaxError
			if !errors.As(err, &se) {
				t.Fatalf("error %v is a %T, want *SyntaxError", err, err)
			}
			if lines := strings.Count(src, "\n") + 1; se.Line < 0 || se.Line > lines {
				t.Fatalf("error %v: line %d outside the source's %d lines", err, se.Line, lines)
			}
			if err2 == nil || err2.Error() != err.Error() {
				t.Fatalf("second run: %v, first: %v", err2, err)
			}
			return
		}
		if err2 != nil {
			t.Fatalf("second run failed: %v", err2)
		}
		img, err := bin.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		img2, err := bin2.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(img, img2) {
			t.Fatal("two runs on the same source gave different images")
		}
	})
}

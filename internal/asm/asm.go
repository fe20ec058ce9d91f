// Package asm implements a two-pass assembler for ZVM-32 producing ZELF
// binaries. It supports labels, label arithmetic, data directives,
// sections with explicit base addresses, exports/imports and library
// references. The synthetic-workload generator emits this syntax, so the
// assembler is the "compiler" of the reproduction pipeline.
//
// Syntax overview (one statement per line, ';' or '#' starts a comment):
//
//	.text 0x00100000        ; begin text section at the given base
//	.data 0x00200000        ; begin data section
//	.entry main             ; program entry point (executables)
//	.type exec              ; "exec" (default) or "lib"
//	.export name            ; export the label `name`
//	.export name = label    ; export label under a different name
//	.import name, gotslot   ; loader writes &name into the word at gotslot
//	.lib "libname"          ; require a library
//
//	main:                   ; label
//	    movi r1, 10         ; registers r0..r15 (sp = r15)
//	    lea r2, table       ; PC-relative address formation
//	    load r3, [r2+4]     ; memory operands: [reg], [reg+disp], [reg-disp]
//	    store [r2], r3
//	    jmp loop            ; long (rel32) branch
//	    jz.s done           ; short (rel8) branch, error if out of range
//	    call fn
//	    .byte 1, 2, 0x1f    ; data directives are legal in any section
//	    .word table, 42     ; 32-bit little-endian words; labels allowed
//	    .space 64           ; zero fill
//	    .asciz "hello"      ; NUL-terminated string, \n \t \\ \" \0 escapes
//	    .align 4            ; pad with zeros to a multiple of 4
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"zipr/internal/binfmt"
	"zipr/internal/isa"
)

// SyntaxError reports an assembly failure with its source line.
type SyntaxError struct {
	Line int
	Msg  string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg)
}

// Assemble translates source text into a ZELF binary for the default
// (ZVM-32) instruction set.
func Assemble(src string) (*binfmt.Binary, error) {
	return AssembleArch(src, isa.DefaultArch())
}

// AssembleArch translates source text into a ZELF binary targeting the
// given instruction set. Fixed-width ISAs reject the ".s" short-branch
// mnemonics and require every instruction to start on an aligned
// address (interleave data with ".align").
func AssembleArch(src string, arch isa.Arch) (*binfmt.Binary, error) {
	a := &assembler{
		labels:  map[string]uint32{},
		secBase: map[string]uint32{},
		arch:    isa.Of(arch),
	}
	if err := a.pass(src, 1); err != nil {
		return nil, err
	}
	a.reset()
	if err := a.pass(src, 2); err != nil {
		return nil, err
	}
	return a.finish()
}

// MustAssemble is Assemble for sources known valid; it panics on error
// and is intended for tests and internal generators.
func MustAssemble(src string) *binfmt.Binary {
	b, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return b
}

type pendingExport struct {
	name  string
	label string
	line  int
}

type pendingImport struct {
	name  string
	label string
	line  int
}

type assembler struct {
	labels  map[string]uint32
	secBase map[string]uint32 // section name -> base address
	arch    isa.Arch
	text    []byte
	data    []byte
	section string // "text" or "data"

	binType   binfmt.Type
	entrySym  string
	entryLine int
	exports   []pendingExport
	imports   []pendingImport
	libs      []string
}

func (a *assembler) reset() {
	a.text = nil
	a.data = nil
	a.section = ""
	a.exports = nil
	a.imports = nil
	a.libs = nil
	a.binType = 0
	a.entrySym = ""
}

// cur returns a pointer to the active section's buffer.
func (a *assembler) cur() (*[]byte, error) {
	switch a.section {
	case "text":
		return &a.text, nil
	case "data":
		return &a.data, nil
	}
	return nil, fmt.Errorf("no active section (missing .text/.data)")
}

// pc returns the current virtual address in the active section.
func (a *assembler) pc() uint32 {
	switch a.section {
	case "text":
		return a.secBase["text"] + uint32(len(a.text))
	case "data":
		return a.secBase["data"] + uint32(len(a.data))
	}
	return 0
}

func (a *assembler) pass(src string, pass int) error {
	for i, raw := range strings.Split(src, "\n") {
		line := i + 1
		if err := a.statement(raw, pass); err != nil {
			if se, ok := err.(*SyntaxError); ok {
				return se
			}
			return &SyntaxError{Line: line, Msg: err.Error()}
		}
	}
	return nil
}

// statement processes one source line.
func (a *assembler) statement(raw string, pass int) error {
	s := raw
	if idx := strings.IndexAny(s, ";#"); idx >= 0 {
		// Don't cut inside string literals.
		if q := strings.IndexByte(s, '"'); q < 0 || q > idx {
			s = s[:idx]
		} else if end := strings.LastIndexByte(s, '"'); end >= 0 {
			if idx2 := strings.IndexAny(s[end:], ";#"); idx2 >= 0 {
				s = s[:end+idx2]
			}
		}
	}
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	// Labels (possibly several, possibly followed by a statement).
	for {
		idx := strings.IndexByte(s, ':')
		if idx < 0 || strings.ContainsAny(s[:idx], " \t\",[") {
			break
		}
		name := s[:idx]
		if !validIdent(name) {
			return fmt.Errorf("bad label name %q", name)
		}
		if pass == 1 {
			if _, dup := a.labels[name]; dup {
				return fmt.Errorf("duplicate label %q", name)
			}
			if a.section == "" {
				return fmt.Errorf("label %q outside any section", name)
			}
			a.labels[name] = a.pc()
		}
		s = strings.TrimSpace(s[idx+1:])
		if s == "" {
			return nil
		}
	}
	if strings.HasPrefix(s, ".") {
		return a.directive(s, pass)
	}
	return a.instruction(s, pass)
}

func validIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || r == '.' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// emit appends bytes to the current section.
func (a *assembler) emit(b ...byte) error {
	buf, err := a.cur()
	if err != nil {
		return err
	}
	*buf = append(*buf, b...)
	return nil
}

func (a *assembler) directive(s string, pass int) error {
	name, rest, _ := strings.Cut(s, " ")
	rest = strings.TrimSpace(rest)
	switch name {
	case ".text", ".data":
		sec := name[1:]
		if rest != "" {
			base, err := a.number(rest)
			if err != nil {
				return fmt.Errorf("bad section base %q: %v", rest, err)
			}
			if base%4096 != 0 {
				return fmt.Errorf("section base %#x not page-aligned", base)
			}
			if pass == 1 {
				if old, ok := a.secBase[sec]; ok && old != uint32(base) {
					return fmt.Errorf("section %s base redefined", sec)
				}
				a.secBase[sec] = uint32(base)
			}
		} else if _, ok := a.secBase[sec]; !ok {
			if pass == 1 {
				// Defaults mirror the synthetic toolchain's layout.
				if sec == "text" {
					a.secBase[sec] = 0x00100000
				} else {
					a.secBase[sec] = 0x00400000
				}
			}
		}
		a.section = sec
		return nil
	case ".entry":
		if !validIdent(rest) {
			return fmt.Errorf("bad entry symbol %q", rest)
		}
		a.entrySym = rest
		return nil
	case ".type":
		switch rest {
		case "exec":
			a.binType = binfmt.Exec
		case "lib":
			a.binType = binfmt.Lib
		default:
			return fmt.Errorf("bad .type %q (want exec or lib)", rest)
		}
		return nil
	case ".export":
		sym, label := rest, rest
		if before, after, ok := strings.Cut(rest, "="); ok {
			sym = strings.TrimSpace(before)
			label = strings.TrimSpace(after)
		}
		if !validIdent(sym) || !validIdent(label) {
			return fmt.Errorf("bad .export %q", rest)
		}
		a.exports = append(a.exports, pendingExport{name: sym, label: label})
		return nil
	case ".import":
		parts := splitOperands(rest)
		if len(parts) != 2 || !validIdent(parts[1]) {
			return fmt.Errorf("bad .import %q (want name, gotlabel)", rest)
		}
		a.imports = append(a.imports, pendingImport{name: parts[0], label: parts[1]})
		return nil
	case ".lib":
		lib := strings.Trim(rest, "\"")
		if lib == "" {
			return fmt.Errorf("bad .lib %q", rest)
		}
		a.libs = append(a.libs, lib)
		return nil
	case ".byte":
		for _, p := range splitOperands(rest) {
			v, err := a.number(p)
			if err != nil {
				return fmt.Errorf("bad .byte operand %q: %v", p, err)
			}
			if v < -128 || v > 255 {
				return fmt.Errorf(".byte operand %d out of range", v)
			}
			if err := a.emit(byte(v)); err != nil {
				return err
			}
		}
		return nil
	case ".word":
		for _, p := range splitOperands(rest) {
			var v int64
			if pass == 1 {
				// Sizes only; label values may not be known yet.
				if err := a.emit(0, 0, 0, 0); err != nil {
					return err
				}
				continue
			}
			v, err := a.value(p)
			if err != nil {
				return fmt.Errorf("bad .word operand %q: %v", p, err)
			}
			if err := a.emit(byte(v), byte(v>>8), byte(v>>16), byte(v>>24)); err != nil {
				return err
			}
		}
		return nil
	case ".space":
		n, err := a.number(rest)
		if err != nil || n < 0 || n > 1<<26 {
			return fmt.Errorf("bad .space size %q", rest)
		}
		return a.emit(make([]byte, n)...)
	case ".align":
		n, err := a.number(rest)
		if err != nil || n <= 0 || n&(n-1) != 0 {
			return fmt.Errorf("bad .align %q (want power of two)", rest)
		}
		pad := (uint32(n) - a.pc()%uint32(n)) % uint32(n)
		return a.emit(make([]byte, pad)...)
	case ".asciz":
		str, err := parseString(rest)
		if err != nil {
			return err
		}
		return a.emit(append([]byte(str), 0)...)
	}
	return fmt.Errorf("unknown directive %s", name)
}

func parseString(s string) (string, error) {
	s = strings.TrimSpace(s)
	if len(s) < 2 || s[0] != '"' || s[len(s)-1] != '"' {
		return "", fmt.Errorf("bad string literal %s", s)
	}
	body := s[1 : len(s)-1]
	var out strings.Builder
	for i := 0; i < len(body); i++ {
		c := body[i]
		if c != '\\' {
			out.WriteByte(c)
			continue
		}
		i++
		if i >= len(body) {
			return "", fmt.Errorf("trailing backslash in string")
		}
		switch body[i] {
		case 'n':
			out.WriteByte('\n')
		case 't':
			out.WriteByte('\t')
		case '\\':
			out.WriteByte('\\')
		case '"':
			out.WriteByte('"')
		case '0':
			out.WriteByte(0)
		default:
			return "", fmt.Errorf("unknown escape \\%c", body[i])
		}
	}
	return out.String(), nil
}

// splitOperands splits on commas that are outside brackets and quotes.
func splitOperands(s string) []string {
	var parts []string
	depth, start := 0, 0
	inStr := false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			inStr = !inStr
		case '[':
			if !inStr {
				depth++
			}
		case ']':
			if !inStr {
				depth--
			}
		case ',':
			if depth == 0 && !inStr {
				parts = append(parts, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	last := strings.TrimSpace(s[start:])
	if last != "" || len(parts) > 0 {
		parts = append(parts, last)
	}
	return parts
}

// number parses a pure numeric constant (no labels).
func (a *assembler) number(s string) (int64, error) {
	s = strings.TrimSpace(s)
	neg := false
	switch {
	case strings.HasPrefix(s, "-"):
		neg = true
		s = s[1:]
	case strings.HasPrefix(s, "+"):
		s = s[1:]
	}
	var v uint64
	var err error
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		v, err = strconv.ParseUint(s[2:], 16, 32)
	} else {
		v, err = strconv.ParseUint(s, 10, 32)
	}
	if err != nil {
		return 0, err
	}
	r := int64(v)
	if neg {
		r = -r
	}
	return r, nil
}

// value evaluates a numeric constant, a label, or label±constant.
func (a *assembler) value(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if n, err := a.number(s); err == nil {
		return n, nil
	}
	// label, label+N, label-N
	sym := s
	var off int64
	if i := strings.LastIndexAny(s, "+-"); i > 0 {
		n, err := a.number(s[i:])
		if err == nil {
			sym = strings.TrimSpace(s[:i])
			off = n
		}
	}
	if !validIdent(sym) {
		return 0, fmt.Errorf("bad expression %q", s)
	}
	addr, ok := a.labels[sym]
	if !ok {
		return 0, fmt.Errorf("undefined label %q", sym)
	}
	return int64(addr) + off, nil
}

func (a *assembler) finish() (*binfmt.Binary, error) {
	bin := &binfmt.Binary{Type: a.binType}
	if bin.Type == 0 {
		bin.Type = binfmt.Exec
	}
	if len(a.text) == 0 {
		return nil, fmt.Errorf("asm: empty text section")
	}
	bin.Segments = append(bin.Segments, binfmt.Segment{
		Kind: binfmt.Text, VAddr: a.secBase["text"], Data: a.text,
	})
	if len(a.data) > 0 {
		bin.Segments = append(bin.Segments, binfmt.Segment{
			Kind: binfmt.Data, VAddr: a.secBase["data"], Data: a.data,
		})
	}
	if bin.Type == binfmt.Exec {
		sym := a.entrySym
		if sym == "" {
			sym = "main"
		}
		addr, ok := a.labels[sym]
		if !ok {
			return nil, fmt.Errorf("asm: entry symbol %q undefined", sym)
		}
		bin.Entry = addr
	}
	for _, e := range a.exports {
		addr, ok := a.labels[e.label]
		if !ok {
			return nil, fmt.Errorf("asm: exported label %q undefined", e.label)
		}
		bin.Exports = append(bin.Exports, binfmt.Symbol{Name: e.name, Addr: addr})
	}
	for _, im := range a.imports {
		addr, ok := a.labels[im.label]
		if !ok {
			return nil, fmt.Errorf("asm: import GOT label %q undefined", im.label)
		}
		bin.Imports = append(bin.Imports, binfmt.Import{Name: im.name, GotAddr: addr})
	}
	bin.Libs = append(bin.Libs, a.libs...)
	if err := bin.Validate(); err != nil {
		return nil, fmt.Errorf("asm: %w", err)
	}
	return bin, nil
}

// Package asm implements a two-pass assembler for ZVM-32 producing ZELF
// binaries. It supports labels, label arithmetic, data directives,
// sections with explicit base addresses, exports/imports and library
// references. The synthetic-workload generator emits this syntax, so the
// assembler is the "compiler" of the reproduction pipeline.
//
// Pass 1 parses every line exactly once: it defines labels, runs the
// directives, checks each instruction's mnemonic, arity and alignment,
// and reserves its bytes. Everything whose value may depend on a label
// (instructions and .word operands) is left as a slot that records the
// line, section offset, mnemonic and operand substrings. Pass 2 walks
// only those slots, resolving operands and encoding each instruction in
// place, so errors that only it can find keep their source line and are
// reported after every pass-1 error, as a full second parse would.
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
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode"

	"zipr/internal/binfmt"
	"zipr/internal/isa"
)

// SyntaxError reports an assembly failure with its source line. Line is
// 0 for a whole-program check (the text section, the entry symbol,
// exports, imports and the image's validity), which no one line fails.
type SyntaxError struct {
	Line int
	Msg  string
}

func (e *SyntaxError) Error() string {
	if e.Line == 0 {
		return "asm: " + e.Msg
	}
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
		labels: make(map[string]uint32, strings.Count(src, ":")),
		arch:   isa.Of(arch),
		slots:  make([]slot, 0, strings.Count(src, "\n")+1),
	}
	if err := a.parse(src); err != nil {
		return nil, err
	}
	if err := a.resolve(); err != nil {
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

// pendingSym is an export or import naming a label that finish
// resolves.
type pendingSym struct {
	name  string
	label string
}

// section indexes the assembler's per-section state.
type section uint8

const (
	secNone section = iota
	secText
	secData
)

// slot is a pass-1 record of a statement whose bytes pass 2 writes: an
// instruction (mn non-nil, operands op1 and op2) or one .word operand
// (mn nil, operand op1). Operands are substrings of the source.
type slot struct {
	line     int32
	sec      section
	off      uint32 // offset of the reserved bytes in the section
	mn       *mnemonic
	op1, op2 string
}

type assembler struct {
	labels map[string]uint32
	arch   isa.Arch
	sec    section // active section
	buf    [3][]byte
	base   [3]uint32
	based  [3]bool // base[sec] set by a directive or its default
	slots  []slot

	binType  binfmt.Type
	entrySym string
	exports  []pendingSym
	imports  []pendingSym
	libs     []string
}

var errNoSection = errors.New("no active section (missing .text/.data)")

// cur returns a pointer to the active section's buffer.
func (a *assembler) cur() (*[]byte, error) {
	if a.sec == secNone {
		return nil, errNoSection
	}
	return &a.buf[a.sec], nil
}

// pc returns the current virtual address in the active section.
func (a *assembler) pc() uint32 {
	return a.base[a.sec] + uint32(len(a.buf[a.sec]))
}

// reserve appends n zero bytes to the active section and returns their
// offset.
func (a *assembler) reserve(n int) (uint32, error) {
	buf, err := a.cur()
	if err != nil {
		return 0, err
	}
	off := len(*buf)
	*buf = slices.Grow(*buf, n)[:off+n]
	clear((*buf)[off:])
	return uint32(off), nil
}

// lineError attaches a source line to err.
func lineError(err error, line int) error {
	return &SyntaxError{Line: line, Msg: err.Error()}
}

// parse is pass 1: one walk over the source lines.
func (a *assembler) parse(src string) error {
	for line := 1; ; line++ {
		raw, rest, more := strings.Cut(src, "\n")
		if err := a.statement(raw, line); err != nil {
			return lineError(err, line)
		}
		if !more {
			return nil
		}
		src = rest
	}
}

// resolve is pass 2: it writes every slot's bytes now that all labels
// are defined.
func (a *assembler) resolve() error {
	for i := range a.slots {
		sl := &a.slots[i]
		var err error
		if sl.mn == nil {
			err = a.word(sl)
		} else {
			err = a.encode(sl)
		}
		if err != nil {
			return lineError(err, int(sl.line))
		}
	}
	return nil
}

// statement processes one source line.
func (a *assembler) statement(raw string, line int) error {
	s := raw
	if idx := commentChars.index(s); idx >= 0 {
		// Don't cut inside string literals.
		if q := strings.IndexByte(s, '"'); q < 0 || q > idx {
			s = s[:idx]
		} else if end := strings.LastIndexByte(s, '"'); end >= 0 {
			if idx2 := commentChars.index(s[end:]); idx2 >= 0 {
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
		if idx < 0 || notInLabel.index(s[:idx]) >= 0 {
			break
		}
		name := s[:idx]
		if !validIdent(name) {
			return fmt.Errorf("bad label name %q", name)
		}
		if _, dup := a.labels[name]; dup {
			return fmt.Errorf("duplicate label %q", name)
		}
		if a.sec == secNone {
			return fmt.Errorf("label %q outside any section", name)
		}
		a.labels[name] = a.pc()
		s = strings.TrimSpace(s[idx+1:])
		if s == "" {
			return nil
		}
	}
	if s[0] == '.' {
		return a.directive(s, line)
	}
	return a.instruction(s, line)
}

// byteSet is a set of ASCII bytes, built once rather than on every
// strings.IndexAny call.
type byteSet [256]bool

func newByteSet(chars string) *byteSet {
	var set byteSet
	for i := 0; i < len(chars); i++ {
		set[chars[i]] = true
	}
	return &set
}

// index returns the index of the first byte of s in the set, or -1.
func (set *byteSet) index(s string) int {
	for i := 0; i < len(s); i++ {
		if set[s[i]] {
			return i
		}
	}
	return -1
}

var (
	commentChars = newByteSet(";#")
	notInLabel   = newByteSet(" \t\",[") // a ':' after one is no label
)

// validIdent reports whether s is an identifier: letters, '_' and '.',
// then also digits.
func validIdent(s string) bool {
	if s == "" || !identStart(s[0]) {
		return false
	}
	for i := 1; i < len(s); i++ {
		if c := s[i]; !identStart(c) && (c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// identStart reports whether c can begin an identifier; no number can.
func identStart(c byte) bool {
	return c == '_' || c == '.' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func (a *assembler) directive(s string, line int) error {
	name, rest, _ := strings.Cut(s, " ")
	rest = strings.TrimSpace(rest)
	switch name {
	case ".text", ".data":
		sec := secText
		if name == ".data" {
			sec = secData
		}
		if rest != "" {
			base, err := number(rest)
			if err != nil {
				return fmt.Errorf("bad section base %q: %v", rest, err)
			}
			if base%4096 != 0 {
				return fmt.Errorf("section base %#x not page-aligned", base)
			}
			if a.based[sec] && a.base[sec] != uint32(base) {
				return fmt.Errorf("section %s base redefined", name[1:])
			}
			a.base[sec], a.based[sec] = uint32(base), true
		} else if !a.based[sec] {
			// Defaults mirror the synthetic toolchain's layout.
			a.base[sec], a.based[sec] = 0x00400000, true
			if sec == secText {
				a.base[sec] = 0x00100000
			}
		}
		a.sec = sec
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
		a.exports = append(a.exports, pendingSym{name: sym, label: label})
		return nil
	case ".import":
		sym, label, n := splitOperands(rest)
		if n != 2 || !validIdent(label) {
			return fmt.Errorf("bad .import %q (want name, gotlabel)", rest)
		}
		a.imports = append(a.imports, pendingSym{name: sym, label: label})
		return nil
	case ".lib":
		lib := strings.Trim(rest, "\"")
		if lib == "" {
			return fmt.Errorf("bad .lib %q", rest)
		}
		a.libs = append(a.libs, lib)
		return nil
	case ".byte":
		for i := 0; rest != "" && i <= len(rest); {
			var p string
			p, i = nextOperand(rest, i)
			v, err := number(p)
			if err != nil {
				return fmt.Errorf("bad .byte operand %q: %v", p, err)
			}
			if v < -128 || v > 255 {
				return fmt.Errorf(".byte operand %d out of range", v)
			}
			buf, err := a.cur()
			if err != nil {
				return err
			}
			*buf = append(*buf, byte(v))
		}
		return nil
	case ".word":
		// Reserve the words; their values may name labels not yet
		// defined, so pass 2 writes them.
		for i := 0; rest != "" && i <= len(rest); {
			var p string
			p, i = nextOperand(rest, i)
			off, err := a.reserve(4)
			if err != nil {
				return err
			}
			a.slots = append(a.slots, slot{line: int32(line), sec: a.sec, off: off, op1: p})
		}
		return nil
	case ".space":
		n, err := number(rest)
		if err != nil || n < 0 || n > 1<<26 {
			return fmt.Errorf("bad .space size %q", rest)
		}
		_, err = a.reserve(int(n))
		return err
	case ".align":
		n, err := number(rest)
		if err != nil || n <= 0 || n&(n-1) != 0 {
			return fmt.Errorf("bad .align %q (want power of two)", rest)
		}
		_, err = a.reserve(int((uint32(n) - a.pc()%uint32(n)) % uint32(n)))
		return err
	case ".asciz":
		buf, err := a.cur()
		if err != nil {
			// A malformed literal is reported before the missing
			// section.
			if _, serr := appendString(nil, rest); serr != nil {
				return serr
			}
			return err
		}
		b, err := appendString(*buf, rest)
		if err != nil {
			return err
		}
		*buf = append(b, 0)
		return nil
	}
	return fmt.Errorf("unknown directive %s", name)
}

// word writes a .word slot's value.
func (a *assembler) word(sl *slot) error {
	v, err := a.value(sl.op1)
	if err != nil {
		return fmt.Errorf("bad .word operand %q: %v", sl.op1, err)
	}
	binary.LittleEndian.PutUint32(a.buf[sl.sec][sl.off:], uint32(v))
	return nil
}

// appendString appends the decoded body of the string literal s to dst.
func appendString(dst []byte, s string) ([]byte, error) {
	s = strings.TrimSpace(s)
	if len(s) < 2 || s[0] != '"' || s[len(s)-1] != '"' {
		return dst, fmt.Errorf("bad string literal %s", s)
	}
	body := s[1 : len(s)-1]
	for i := 0; i < len(body); i++ {
		c := body[i]
		if c != '\\' {
			dst = append(dst, c)
			continue
		}
		i++
		if i >= len(body) {
			return dst, fmt.Errorf("trailing backslash in string")
		}
		switch body[i] {
		case 'n':
			dst = append(dst, '\n')
		case 't':
			dst = append(dst, '\t')
		case '\\':
			dst = append(dst, '\\')
		case '"':
			dst = append(dst, '"')
		case '0':
			dst = append(dst, 0)
		default:
			return dst, fmt.Errorf("unknown escape \\%c", body[i])
		}
	}
	return dst, nil
}

// nextOperand returns the trimmed operand of s that starts at index i
// and the index just past the comma that ends it (len(s)+1 after the
// last operand). Commas inside brackets or quotes do not split.
func nextOperand(s string, i int) (string, int) {
	depth, inStr := 0, false
	for j := i; j < len(s); j++ {
		switch s[j] {
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
				return strings.TrimSpace(s[i:j]), j + 1
			}
		}
	}
	return strings.TrimSpace(s[i:]), len(s) + 1
}

// splitOperands splits the trimmed operand list s and returns its
// first two operands and the operand count. An empty list has no
// operands; a trailing comma adds an empty one.
func splitOperands(s string) (op1, op2 string, n int) {
	for i := 0; s != "" && i <= len(s); n++ {
		var p string
		p, i = nextOperand(s, i)
		switch n {
		case 0:
			op1 = p
		case 1:
			op2 = p
		}
	}
	return op1, op2, n
}

// cutField splits s, which has no leading space, at its first white
// space into the first field and the trimmed remainder.
func cutField(s string) (field, rest string) {
	for i, r := range s {
		if unicode.IsSpace(r) {
			return s[:i], strings.TrimSpace(s[i:])
		}
	}
	return s, ""
}

// number parses a pure numeric constant (no labels).
func number(s string) (int64, error) {
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
	// An operand that starts like an identifier cannot be a number, so
	// only the others pay for a failed numeric parse.
	if s == "" || !identStart(s[0]) {
		if n, err := number(s); err == nil {
			return n, nil
		}
	}
	// label, label+N, label-N
	sym := s
	var off int64
	if i := strings.LastIndexAny(s, "+-"); i > 0 {
		n, err := number(s[i:])
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

// finish resolves the whole-program references and builds the binary.
// Names are cloned out of the source, which would otherwise stay
// reachable, whole, for as long as the binary does.
func (a *assembler) finish() (*binfmt.Binary, error) {
	bin := &binfmt.Binary{Type: a.binType}
	if bin.Type == 0 {
		bin.Type = binfmt.Exec
	}
	if len(a.buf[secText]) == 0 {
		return nil, &SyntaxError{Msg: "empty text section"}
	}
	bin.Segments = append(bin.Segments, binfmt.Segment{
		Kind: binfmt.Text, VAddr: a.base[secText], Data: a.buf[secText],
	})
	if len(a.buf[secData]) > 0 {
		bin.Segments = append(bin.Segments, binfmt.Segment{
			Kind: binfmt.Data, VAddr: a.base[secData], Data: a.buf[secData],
		})
	}
	if bin.Type == binfmt.Exec {
		sym := a.entrySym
		if sym == "" {
			sym = "main"
		}
		addr, ok := a.labels[sym]
		if !ok {
			return nil, &SyntaxError{Msg: fmt.Sprintf("entry symbol %q undefined", sym)}
		}
		bin.Entry = addr
	}
	for _, e := range a.exports {
		addr, ok := a.labels[e.label]
		if !ok {
			return nil, &SyntaxError{Msg: fmt.Sprintf("exported label %q undefined", e.label)}
		}
		bin.Exports = append(bin.Exports, binfmt.Symbol{Name: strings.Clone(e.name), Addr: addr})
	}
	for _, im := range a.imports {
		addr, ok := a.labels[im.label]
		if !ok {
			return nil, &SyntaxError{Msg: fmt.Sprintf("import GOT label %q undefined", im.label)}
		}
		bin.Imports = append(bin.Imports, binfmt.Import{Name: strings.Clone(im.name), GotAddr: addr})
	}
	for _, lib := range a.libs {
		bin.Libs = append(bin.Libs, strings.Clone(lib))
	}
	if err := bin.Validate(); err != nil {
		return nil, &SyntaxError{Msg: err.Error()}
	}
	return bin, nil
}

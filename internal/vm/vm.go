// Package vm executes ZVM-32 machine code in a deterministic simulated
// environment modeled on DARPA's DECREE: exactly seven system calls
// (terminate, transmit, receive, fdwait, allocate, deallocate, random),
// no filesystem, and byte-stream stdin/stdout. The machine counts retired
// instructions (the CGC "execution" metric) and tracks every 4 KiB page
// it touches (the CGC "memory"/MaxRSS metric), so overhead measurements
// of rewritten binaries are exact and noise-free.
package vm

import (
	"errors"
	"fmt"
	"io"

	"zipr/internal/isa"
)

// PageSize is the machine's page size in bytes.
const PageSize = 4096

// Memory-layout constants shared with the loader and program generators.
const (
	// StackTop is the initial stack pointer; the stack grows down.
	StackTop uint32 = 0xBFFF0000
	// StackSize is the mapped stack size in bytes.
	StackSize uint32 = 64 * 1024
	// HeapBase is where allocate() starts handing out pages.
	HeapBase uint32 = 0x40000000
)

// Perm is a page permission bitmask.
type Perm uint8

// Permissions.
const (
	PermR Perm = 1 << iota
	PermW
	PermX
)

// DECREE system call numbers (passed in r0).
const (
	SysTerminate  = 1
	SysTransmit   = 2
	SysReceive    = 3
	SysFdwait     = 4
	SysAllocate   = 5
	SysDeallocate = 6
	SysRandom     = 7
)

// Fault describes an abnormal machine stop.
type Fault struct {
	PC     uint32
	Reason string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("vm: fault at %#x: %s", f.PC, f.Reason)
}

// ErrStepLimit is returned when execution exceeds the step budget.
var ErrStepLimit = errors.New("vm: step limit exceeded")

type page struct {
	data [PageSize]byte
	perm Perm
}

// Machine is a single ZVM hart plus its address space and OS state.
// The machine model (registers, flags, memory, syscalls) is shared by
// both ISAs; WithArch selects the instruction codec used by fetch.
type Machine struct {
	pages      map[uint32]*page // keyed by addr >> 12
	touched    map[uint32]struct{}
	regs       [isa.NumRegs]uint32
	pc         uint32
	zf, lt, bf bool
	arch       isa.Arch

	// Pages are never unmapped and their permissions never change after
	// Map, so the page touched last and the page fetched from last can
	// be remembered: touch skips the map write for the former and fetch
	// the map lookup for the latter.
	lastTouched uint32 // valid when anyTouched
	anyTouched  bool
	fetchKey    uint32 // page number of fetchPage
	fetchPage   *page  // executable; nil until the first in-page fetch
	fetchBuf    [isa.ZVM64MaxLen]byte

	stdin    io.Reader
	stdout   []byte
	rngState uint64

	steps    uint64
	maxSteps uint64
	syscalls uint64
	memOps   uint64
	heapNext uint32

	halted   bool
	exitCode int32

	trace    []uint32 // ring buffer of recent PCs (diagnostics)
	tracePos int
}

// Option configures a Machine.
type Option func(*Machine)

// WithStdin supplies the program's input stream.
func WithStdin(r io.Reader) Option { return func(m *Machine) { m.stdin = r } }

// WithMaxSteps bounds execution; Run returns ErrStepLimit past it.
func WithMaxSteps(n uint64) Option { return func(m *Machine) { m.maxSteps = n } }

// WithTrace keeps a ring buffer of the last n program-counter values for
// post-mortem diagnostics (see LastPCs).
func WithTrace(n int) Option {
	return func(m *Machine) { m.trace = make([]uint32, n) }
}

// WithArch selects the ISA the machine decodes (nil/default: ZVM-32).
// On fixed-width ISAs a misaligned PC is a fetch fault, exactly like a
// non-executable one.
func WithArch(a isa.Arch) Option { return func(m *Machine) { m.arch = isa.Of(a) } }

// WithRandomSeed seeds the deterministic random() syscall stream.
func WithRandomSeed(seed uint64) Option {
	return func(m *Machine) {
		if seed == 0 {
			seed = 1
		}
		m.rngState = seed
	}
}

// New creates a machine with a mapped stack and no other memory.
func New(opts ...Option) *Machine {
	m := &Machine{
		pages:    make(map[uint32]*page),
		touched:  make(map[uint32]struct{}),
		arch:     isa.DefaultArch(),
		rngState: 0x5DEECE66D,
		maxSteps: 200_000_000,
		heapNext: HeapBase,
	}
	for _, o := range opts {
		o(m)
	}
	_ = m.Map(StackTop-StackSize, int(StackSize), PermR|PermW)
	m.regs[isa.SP] = StackTop
	return m
}

// Map creates size bytes of zeroed memory at vaddr with the given
// permissions. vaddr must be page-aligned; size is rounded up to whole
// pages. Mapping over an existing page is an error.
func (m *Machine) Map(vaddr uint32, size int, perm Perm) error {
	if vaddr%PageSize != 0 {
		return fmt.Errorf("vm: unaligned map at %#x", vaddr)
	}
	nPages := (size + PageSize - 1) / PageSize
	for i := 0; i < nPages; i++ {
		key := vaddr/PageSize + uint32(i)
		if _, exists := m.pages[key]; exists {
			return fmt.Errorf("vm: page %#x already mapped", key*PageSize)
		}
		m.pages[key] = &page{perm: perm}
	}
	return nil
}

// WriteMem copies data into already-mapped memory, ignoring write
// permissions (used by loaders). It does not count as a touch.
func (m *Machine) WriteMem(vaddr uint32, data []byte) error {
	for i, b := range data {
		a := vaddr + uint32(i)
		pg, ok := m.pages[a/PageSize]
		if !ok {
			return fmt.Errorf("vm: WriteMem to unmapped %#x", a)
		}
		pg.data[a%PageSize] = b
	}
	return nil
}

// ReadMem copies memory out of the machine without counting touches.
func (m *Machine) ReadMem(vaddr uint32, n int) ([]byte, error) {
	out := make([]byte, n)
	for i := range out {
		a := vaddr + uint32(i)
		pg, ok := m.pages[a/PageSize]
		if !ok {
			return nil, fmt.Errorf("vm: ReadMem from unmapped %#x", a)
		}
		out[i] = pg.data[a%PageSize]
	}
	return out, nil
}

// SetPC sets the program counter (normally to a binary's entry point).
func (m *Machine) SetPC(pc uint32) { m.pc = pc }

// Reg returns the value of register r.
func (m *Machine) Reg(r int) uint32 { return m.regs[r] }

// SetReg sets register r.
func (m *Machine) SetReg(r int, v uint32) { m.regs[r] = v }

// Result summarizes a completed (or aborted) execution.
type Result struct {
	ExitCode     int32  // argument of terminate()
	Steps        uint64 // retired instructions: the CPU metric
	PagesTouched int    // distinct 4 KiB pages accessed: the MaxRSS metric
	Syscalls     uint64 // syscall instructions retired
	MemOps       uint64 // data loads/stores executed (fetches excluded)
	Output       []byte // everything transmitted to fd 1 and 2
}

// MaxRSSBytes converts the touched-page count into bytes.
func (r Result) MaxRSSBytes() uint64 { return uint64(r.PagesTouched) * PageSize }

func (m *Machine) result() Result {
	return Result{
		ExitCode:     m.exitCode,
		Steps:        m.steps,
		PagesTouched: len(m.touched),
		Syscalls:     m.syscalls,
		MemOps:       m.memOps,
		Output:       m.stdout,
	}
}

// Run executes from the current PC until the program terminates, faults,
// or exceeds the step budget. On fault the error is a *Fault and the
// partial Result is still returned.
func (m *Machine) Run() (Result, error) {
	for !m.halted {
		if m.steps >= m.maxSteps {
			return m.result(), ErrStepLimit
		}
		if err := m.step(); err != nil {
			return m.result(), err
		}
	}
	return m.result(), nil
}

// touch records residency of the page containing addr.
func (m *Machine) touch(addr uint32) {
	key := addr / PageSize
	if m.anyTouched && key == m.lastTouched {
		return
	}
	m.touched[key] = struct{}{}
	m.lastTouched, m.anyTouched = key, true
}

func (m *Machine) fault(format string, args ...any) error {
	return &Fault{PC: m.pc, Reason: fmt.Sprintf(format, args...)}
}

// access returns the page and offset for addr after a permission check,
// recording residency.
func (m *Machine) access(addr uint32, need Perm) (*page, uint32, error) {
	pg, ok := m.pages[addr/PageSize]
	if !ok {
		return nil, 0, m.fault("access to unmapped address %#x", addr)
	}
	if pg.perm&need != need {
		return nil, 0, m.fault("permission violation at %#x (need %b have %b)", addr, need, pg.perm)
	}
	m.touch(addr)
	return pg, addr % PageSize, nil
}

func (m *Machine) load32(addr uint32) (uint32, error) {
	m.memOps++
	var v uint32
	for i := uint32(0); i < 4; i++ {
		pg, off, err := m.access(addr+i, PermR)
		if err != nil {
			return 0, err
		}
		v |= uint32(pg.data[off]) << (8 * i)
	}
	return v, nil
}

func (m *Machine) store32(addr, v uint32) error {
	m.memOps++
	for i := uint32(0); i < 4; i++ {
		pg, off, err := m.access(addr+i, PermW)
		if err != nil {
			return err
		}
		pg.data[off] = byte(v >> (8 * i))
	}
	return nil
}

func (m *Machine) load8(addr uint32) (byte, error) {
	m.memOps++
	pg, off, err := m.access(addr, PermR)
	if err != nil {
		return 0, err
	}
	return pg.data[off], nil
}

func (m *Machine) store8(addr uint32, v byte) error {
	m.memOps++
	pg, off, err := m.access(addr, PermW)
	if err != nil {
		return err
	}
	pg.data[off] = v
	return nil
}

func (m *Machine) push(v uint32) error {
	m.regs[isa.SP] -= 4
	return m.store32(m.regs[isa.SP], v)
}

func (m *Machine) pop() (uint32, error) {
	v, err := m.load32(m.regs[isa.SP])
	if err != nil {
		return 0, err
	}
	m.regs[isa.SP] += 4
	return v, nil
}

// fetch decodes the instruction at PC, checking execute permission on
// every byte consumed.
func (m *Machine) fetch() (isa.Inst, error) {
	maxLen := m.arch.MaxLen()
	var code []byte
	if off := int(m.pc % PageSize); off+maxLen <= PageSize {
		// The longest encoding fits in PC's page: one executable page
		// supplies every byte.
		key := m.pc / PageSize
		if m.fetchPage == nil || key != m.fetchKey {
			if pg := m.pages[key]; pg != nil && pg.perm&PermX != 0 {
				m.fetchKey, m.fetchPage = key, pg
			}
		}
		if m.fetchPage != nil && key == m.fetchKey {
			code = m.fetchPage.data[off : off+maxLen]
		}
	}
	if code == nil {
		n := 0
		for ; n < maxLen; n++ {
			a := m.pc + uint32(n)
			pg, ok := m.pages[a/PageSize]
			if !ok || pg.perm&PermX == 0 {
				break
			}
			m.fetchBuf[n] = pg.data[a%PageSize]
		}
		if n == 0 {
			return isa.Inst{}, m.fault("execute from non-executable address %#x", m.pc)
		}
		code = m.fetchBuf[:n]
	}
	in, err := m.arch.Decode(code, m.pc)
	if err != nil {
		return isa.Inst{}, m.fault("decode: %v (bytes % x)", err, code)
	}
	// An instruction is shorter than a page, so its first and last
	// bytes lie on every page it spans.
	m.touch(m.pc)
	m.touch(m.pc + uint32(m.arch.InstLen(in)) - 1)
	return in, nil
}

func (m *Machine) setFlagsResult(res uint32) {
	m.zf = res == 0
	m.lt = int32(res) < 0
	m.bf = false
}

func (m *Machine) setFlagsCmp(a, b uint32) {
	m.zf = a == b
	m.lt = int32(a) < int32(b)
	m.bf = a < b
}

func (m *Machine) cond(cc isa.Cc) bool {
	switch cc {
	case isa.CcZ:
		return m.zf
	case isa.CcNZ:
		return !m.zf
	case isa.CcL:
		return m.lt
	case isa.CcGE:
		return !m.lt
	case isa.CcLE:
		return m.lt || m.zf
	case isa.CcG:
		return !m.lt && !m.zf
	case isa.CcB:
		return m.bf
	case isa.CcAE:
		return !m.bf
	}
	return false
}

// LastPCs returns the most recent program counters, oldest first
// (requires WithTrace).
func (m *Machine) LastPCs() []uint32 {
	if m.trace == nil {
		return nil
	}
	out := make([]uint32, 0, len(m.trace))
	for i := 0; i < len(m.trace); i++ {
		v := m.trace[(m.tracePos+i)%len(m.trace)]
		if v != 0 {
			out = append(out, v)
		}
	}
	return out
}

// step executes one instruction.
func (m *Machine) step() error {
	if m.trace != nil {
		m.trace[m.tracePos] = m.pc
		m.tracePos = (m.tracePos + 1) % len(m.trace)
	}
	in, err := m.fetch()
	if err != nil {
		return err
	}
	m.steps++
	next := m.pc + uint32(m.arch.InstLen(in))
	rd := &m.regs[in.Rd]
	rs := m.regs[in.Rs]

	switch in.Op {
	case isa.OpNop:
	case isa.OpHlt:
		return m.fault("hlt executed")
	case isa.OpRet:
		v, err := m.pop()
		if err != nil {
			return err
		}
		m.pc = v
		return nil
	case isa.OpSyscall:
		return m.syscall(next)

	case isa.OpPush:
		if err := m.push(*rd); err != nil {
			return err
		}
	case isa.OpPop:
		v, err := m.pop()
		if err != nil {
			return err
		}
		*rd = v
	case isa.OpJmpR:
		m.pc = *rd
		return nil
	case isa.OpCallR:
		if err := m.push(next); err != nil {
			return err
		}
		m.pc = *rd
		return nil
	case isa.OpInc:
		*rd++
		m.setFlagsResult(*rd)
	case isa.OpDec:
		*rd--
		m.setFlagsResult(*rd)
	case isa.OpNot:
		*rd = ^*rd

	case isa.OpPushI8, isa.OpPushI32:
		if err := m.push(uint32(in.Imm)); err != nil {
			return err
		}

	case isa.OpJmp8, isa.OpJmp32:
		m.pc = next + uint32(in.Imm)
		return nil
	case isa.OpCall:
		if err := m.push(next); err != nil {
			return err
		}
		m.pc = next + uint32(in.Imm)
		return nil
	case isa.OpJcc8, isa.OpJcc32:
		if m.cond(in.Cc) {
			m.pc = next + uint32(in.Imm)
			return nil
		}

	case isa.OpAdd:
		*rd += rs
		m.setFlagsResult(*rd)
	case isa.OpSub:
		*rd -= rs
		m.setFlagsResult(*rd)
	case isa.OpAnd:
		*rd &= rs
		m.setFlagsResult(*rd)
	case isa.OpOr:
		*rd |= rs
		m.setFlagsResult(*rd)
	case isa.OpXor:
		*rd ^= rs
		m.setFlagsResult(*rd)
	case isa.OpMul:
		*rd *= rs
		m.setFlagsResult(*rd)
	case isa.OpDiv:
		if rs == 0 {
			return m.fault("divide by zero")
		}
		*rd /= rs
		m.setFlagsResult(*rd)
	case isa.OpMod:
		if rs == 0 {
			return m.fault("modulo by zero")
		}
		*rd %= rs
		m.setFlagsResult(*rd)
	case isa.OpShl:
		*rd <<= rs & 31
		m.setFlagsResult(*rd)
	case isa.OpShr:
		*rd >>= rs & 31
		m.setFlagsResult(*rd)
	case isa.OpCmp:
		m.setFlagsCmp(*rd, rs)
	case isa.OpMov:
		*rd = rs

	case isa.OpAddI8, isa.OpAddI:
		*rd += uint32(in.Imm)
		m.setFlagsResult(*rd)
	case isa.OpCmpI8, isa.OpCmpI:
		m.setFlagsCmp(*rd, uint32(in.Imm))
	case isa.OpShlI:
		*rd <<= uint32(in.Imm) & 31
		m.setFlagsResult(*rd)
	case isa.OpShrI:
		*rd >>= uint32(in.Imm) & 31
		m.setFlagsResult(*rd)
	case isa.OpMovI:
		*rd = uint32(in.Imm)
	case isa.OpAndI:
		*rd &= uint32(in.Imm)
		m.setFlagsResult(*rd)
	case isa.OpOrI:
		*rd |= uint32(in.Imm)
		m.setFlagsResult(*rd)
	case isa.OpXorI:
		*rd ^= uint32(in.Imm)
		m.setFlagsResult(*rd)

	case isa.OpLea:
		*rd = next + uint32(in.Imm)
	case isa.OpLoadPC:
		v, err := m.load32(next + uint32(in.Imm))
		if err != nil {
			return err
		}
		*rd = v

	case isa.OpLoad:
		v, err := m.load32(rs + uint32(in.Imm))
		if err != nil {
			return err
		}
		*rd = v
	case isa.OpLoadB:
		v, err := m.load8(rs + uint32(in.Imm))
		if err != nil {
			return err
		}
		*rd = uint32(v)
	case isa.OpStore:
		if err := m.store32(*rd+uint32(in.Imm), rs); err != nil {
			return err
		}
	case isa.OpStoreB:
		if err := m.store8(*rd+uint32(in.Imm), byte(rs)); err != nil {
			return err
		}

	default:
		return m.fault("unimplemented op %s", in.Op.Name())
	}
	m.pc = next
	return nil
}

// nextRand steps the deterministic xorshift64* generator.
func (m *Machine) nextRand() uint64 {
	x := m.rngState
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	m.rngState = x
	return x * 0x2545F4914F6CDD1D
}

// syscall implements the seven DECREE calls. r0 is the call number and
// receives the result; arguments are r1..r4.
func (m *Machine) syscall(next uint32) error {
	m.syscalls++
	num := m.regs[0]
	a1, a2, a3 := m.regs[1], m.regs[2], m.regs[3]
	switch num {
	case SysTerminate:
		m.halted = true
		m.exitCode = int32(a1)
		m.pc = next
		return nil
	case SysTransmit:
		if a1 != 1 && a1 != 2 {
			m.regs[0] = ^uint32(0) // -1: bad fd
			break
		}
		for i := uint32(0); i < a3; i++ {
			b, err := m.load8(a2 + i)
			if err != nil {
				return err
			}
			m.stdout = append(m.stdout, b)
		}
		m.regs[0] = a3
	case SysReceive:
		if a1 != 0 {
			m.regs[0] = ^uint32(0)
			break
		}
		n := uint32(0)
		if m.stdin != nil {
			buf := make([]byte, a3)
			read, _ := io.ReadFull(m.stdin, buf)
			for i := 0; i < read; i++ {
				if err := m.store8(a2+uint32(i), buf[i]); err != nil {
					return err
				}
			}
			n = uint32(read)
		}
		m.regs[0] = n
	case SysFdwait:
		m.regs[0] = 0
	case SysAllocate:
		length := a1
		if length == 0 || length > 1<<26 {
			m.regs[0] = 0
			break
		}
		addr := m.heapNext
		if err := m.Map(addr, int(length), PermR|PermW); err != nil {
			return m.fault("allocate: %v", err)
		}
		m.heapNext += (length + PageSize - 1) / PageSize * PageSize
		m.regs[0] = addr
	case SysDeallocate:
		// Pages stay mapped (and counted): a conservative MaxRSS, as on
		// DECREE where RSS high-water marks never shrink.
		m.regs[0] = 0
	case SysRandom:
		for i := uint32(0); i < a2; i++ {
			if err := m.store8(a1+i, byte(m.nextRand())); err != nil {
				return err
			}
		}
		m.regs[0] = a2
	default:
		return m.fault("unknown syscall %d", num)
	}
	m.pc = next
	return nil
}

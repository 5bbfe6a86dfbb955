package interp

import (
	"errors"
	"fmt"

	"castan/internal/ir"
)

// MemAccess describes one load or store, delivered to the OnMem hook.
type MemAccess struct {
	Addr    uint64
	Size    uint8
	IsWrite bool
}

// Hooks receive execution events. Nil hooks are skipped. The testbed uses
// OnInstr for cycle accounting and OnMem to drive the cache simulator.
type Hooks struct {
	OnInstr func(fn *ir.Func, in *ir.Instr)
	OnMem   func(a MemAccess)
	// OnDef fires after a value-defining instruction executes, with the
	// value just written to its destination register. The taint
	// soundness property test uses this to compare per-instruction
	// value streams across runs.
	OnDef func(fn *ir.Func, in *ir.Instr, val uint64)
}

// ErrStepBudget is returned when execution exceeds the configured budget,
// which in a validated NF indicates a runaway loop.
var ErrStepBudget = errors.New("interp: step budget exhausted")

// Machine executes functions of one module against one memory.
type Machine struct {
	Mod   *ir.Module
	Mem   *Memory
	Hooks Hooks

	// MaxSteps bounds instructions per Call; 0 means DefaultMaxSteps.
	MaxSteps int

	heapTop uint64
	steps   int
	counts  OpCounts

	// regs is the register stack: the frames of the active functions,
	// caller below callee. ir.Validate rejects recursion, so its depth
	// is bounded by the call graph and it is sized once the deepest
	// chain has run.
	regs []uint64
	// key is OpHavoc's key buffer.
	key []byte
	// pages caches Mem's page lookups for loads and stores. A Memory
	// never moves or drops a page once it exists and only existing
	// pages are cached, so an entry cannot go stale — not even when
	// setup code creates pages through Mem behind the machine's back.
	// It lives here, not in Memory, because Memory reads must stay
	// free of writes (see Memory.Read).
	pages pageCache
}

// OpCounts tallies executed instructions by what the cost model prices
// them on: the opcode, and for OpBin the operation. The arrays are
// indexed by ir.Opcode and ir.BinOp; they are sized to a power of two so
// the step loop can index them without a bounds check.
type OpCounts struct {
	Op  [16]uint64
	Bin [16]uint64
}

// pageCacheSize is the number of direct-mapped page-cache slots: the
// packet, the stack of globals an NF walks per packet and a few hundred
// KiB of table or heap stay resident.
const pageCacheSize = 256

type pageCache struct {
	of   *Memory                        // the Memory the entries belong to
	key  [pageCacheSize]uint64          // page index + 1; 0 = empty
	page [pageCacheSize]*[pageSize]byte // never nil where key is set
}

// DefaultMaxSteps bounds a single Call.
const DefaultMaxSteps = 50_000_000

// NewMachine creates a machine for the module with fresh memory and
// initializes the heap pointer. Module must be laid out and validated.
func NewMachine(mod *ir.Module) *Machine {
	return &Machine{Mod: mod, Mem: NewMemory(), heapTop: ir.HeapBase}
}

// HeapUsed reports bytes handed out by OpAlloc.
func (m *Machine) HeapUsed() uint64 { return m.heapTop - ir.HeapBase }

// Alloc reserves size bytes on the machine heap (64-byte aligned), for
// Go-side setup code that needs memory the IR will later traverse.
func (m *Machine) Alloc(size uint64) uint64 {
	addr := (m.heapTop + 63) &^ 63
	m.heapTop = addr + size
	return addr
}

// Steps reports how many instructions the last Call executed.
func (m *Machine) Steps() int { return m.steps }

// OpCounts reports the last Call's instructions by cost class. The
// result is valid until the next Call.
func (m *Machine) OpCounts() *OpCounts { return &m.counts }

// Call runs the named function with the given arguments and returns its
// return value. The per-call step budget guards against runaway loops.
// Hooks and MaxSteps are sampled as each function is entered; changing
// them from inside a hook takes effect at the next call or Call.
func (m *Machine) Call(name string, args ...uint64) (uint64, error) {
	fn := m.Mod.Funcs[name]
	if fn == nil {
		return 0, fmt.Errorf("interp: no function %q", name)
	}
	m.steps = 0
	m.counts = OpCounts{}
	if m.pages.of != m.Mem {
		m.pages = pageCache{of: m.Mem}
	}
	frame, err := m.frame(fn, 0, len(args))
	if err != nil {
		return 0, err
	}
	copy(frame, args)
	return m.run(fn, frame, 0)
}

// frame carves fn's zeroed register frame out of the register stack at
// base. A stack too small is replaced by a larger one, not moved: frames
// below base stay where they are, in the old array, which lives as long
// as the activations holding them — a frame is only ever touched by its
// own activation.
func (m *Machine) frame(fn *ir.Func, base, nargs int) ([]uint64, error) {
	if nargs != fn.NumParams {
		return nil, fmt.Errorf("interp: %s expects %d args, got %d", fn.Name, fn.NumParams, nargs)
	}
	top := base + fn.NumRegs
	if top > len(m.regs) {
		m.regs = make([]uint64, 2*top)
	}
	f := m.regs[base:top]
	clear(f)
	return f, nil
}

// run executes fn on its frame regs, which the caller has carved at base
// and filled with the arguments.
func (m *Machine) run(fn *ir.Func, regs []uint64, base int) (uint64, error) {
	onInstr, onMem, onDef := m.Hooks.OnInstr, m.Hooks.OnMem, m.Hooks.OnDef
	budget := m.MaxSteps
	if budget <= 0 {
		budget = DefaultMaxSteps
	}
	// steps is m.steps kept in a register; it is written back wherever
	// control leaves this activation.
	steps := m.steps
	blk := fn.Entry()
	pc := 0
	for {
		if pc >= len(blk.Instrs) {
			m.steps = steps
			return 0, fmt.Errorf("interp: fell off block %s/%s", fn.Name, blk.Name)
		}
		in := blk.Instrs[pc]
		if steps >= budget {
			m.steps = steps
			return 0, ErrStepBudget
		}
		steps++
		m.counts.Op[in.Op%16]++
		if onInstr != nil {
			onInstr(fn, in)
		}
		switch in.Op {
		case ir.OpConst:
			regs[in.Dst] = in.Imm
		case ir.OpMov:
			regs[in.Dst] = regs[in.A]
		case ir.OpBin:
			m.counts.Bin[in.Bin%16]++
			regs[in.Dst] = in.Bin.Eval(regs[in.A], regs[in.B])
		case ir.OpCmp:
			regs[in.Dst] = in.Pred.Eval(regs[in.A], regs[in.B])
		case ir.OpSelect:
			if regs[in.A] != 0 {
				regs[in.Dst] = regs[in.B]
			} else {
				regs[in.Dst] = regs[in.C]
			}
		case ir.OpLoad:
			addr := regs[in.A] + in.Imm
			if onMem != nil {
				onMem(MemAccess{Addr: addr, Size: in.Size})
			}
			regs[in.Dst] = m.load(addr, in.Size)
		case ir.OpStore:
			addr := regs[in.A] + in.Imm
			if onMem != nil {
				onMem(MemAccess{Addr: addr, Size: in.Size, IsWrite: true})
			}
			m.store(addr, regs[in.B], in.Size)
		case ir.OpBr:
			blk, pc = in.Blk0, 0
			continue
		case ir.OpCondBr:
			if regs[in.A] != 0 {
				blk = in.Blk0
			} else {
				blk = in.Blk1
			}
			pc = 0
			continue
		case ir.OpCall:
			// Arguments go straight into the callee's frame, which sits
			// on top of this one.
			top := base + len(regs)
			frame, err := m.frame(in.Callee, top, len(in.Args))
			if err != nil {
				m.steps = steps
				return 0, err
			}
			for i, a := range in.Args {
				frame[i] = regs[a]
			}
			m.steps = steps
			ret, err := m.run(in.Callee, frame, top)
			if err != nil {
				return 0, err
			}
			steps = m.steps
			if in.Dst != ir.NoReg {
				regs[in.Dst] = ret
			}
		case ir.OpRet:
			m.steps = steps
			if in.A == ir.NoReg {
				return 0, nil
			}
			return regs[in.A], nil
		case ir.OpAlloc:
			regs[in.Dst] = m.Alloc(regs[in.A])
		case ir.OpHavoc:
			h := m.Mod.Hashes[in.HashID]
			if uint64(cap(m.key)) < in.Imm {
				m.key = make([]byte, in.Imm)
			}
			key := m.key[:in.Imm]
			m.Mem.ReadBytes(regs[in.A], key)
			// The key bytes flow through the hash; account the reads so
			// the cache simulator sees them like any other access.
			if onMem != nil {
				for off := uint64(0); off < in.Imm; off += 8 {
					sz := in.Imm - off
					if sz > 8 {
						sz = 8
					}
					onMem(MemAccess{Addr: regs[in.A] + off, Size: uint8(sz)})
				}
			}
			mask := uint64(1)<<uint(h.Bits) - 1
			if h.Bits >= 64 {
				mask = ^uint64(0)
			}
			regs[in.Dst] = h.Fn(key) & mask
		default:
			m.steps = steps
			return 0, fmt.Errorf("interp: bad opcode %d in %s", in.Op, fn.Name)
		}
		if onDef != nil {
			if d := in.Def(); d != ir.NoReg {
				onDef(fn, in, regs[d])
			}
		}
		pc++
	}
}

// page returns the page holding addr through the page cache, nil if it
// does not exist and create is false.
func (m *Machine) page(addr uint64, create bool) *[pageSize]byte {
	idx := addr >> pageBits
	slot := idx % pageCacheSize
	if m.pages.key[slot] == idx+1 {
		return m.pages.page[slot]
	}
	p := m.Mem.page(addr, create)
	if p != nil {
		m.pages.key[slot], m.pages.page[slot] = idx+1, p
	}
	return p
}

// load is Mem.Read through the page cache.
func (m *Machine) load(addr uint64, size uint8) uint64 {
	off := addr & (pageSize - 1)
	if off+uint64(size) > pageSize {
		return m.Mem.Read(addr, size) // straddles two pages
	}
	return readAt(m.page(addr, false), off, size)
}

// store is Mem.Write through the page cache.
func (m *Machine) store(addr, v uint64, size uint8) {
	if off := addr & (pageSize - 1); off+uint64(size) <= pageSize {
		writeBE(m.page(addr, true)[off:], v, size)
		return
	}
	m.Mem.Write(addr, v, size)
}

package interp

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"

	"castan/internal/ir"
)

// RefCall is Call as it was before the step path stopped allocating: a
// fresh register slice per activation, an argument slice per call, a key
// slice per havoc, hooks and budget re-read every step, and every load
// and store staged through an 8-byte buffer and the page map. It is kept
// test-only (exported so the external identity test, which needs
// internal/nf, can reach it) as the oracle TestRunMatchesReference holds
// Call to: same return values, same hook event streams, same memory.
func (m *Machine) RefCall(name string, args ...uint64) (uint64, error) {
	fn := m.Mod.Funcs[name]
	if fn == nil {
		return 0, fmt.Errorf("interp: no function %q", name)
	}
	m.steps = 0
	return m.refRun(fn, args)
}

func (m *Machine) refBudget() int {
	if m.MaxSteps > 0 {
		return m.MaxSteps
	}
	return DefaultMaxSteps
}

func (m *Machine) refRun(fn *ir.Func, args []uint64) (uint64, error) {
	if len(args) != fn.NumParams {
		return 0, fmt.Errorf("interp: %s expects %d args, got %d", fn.Name, fn.NumParams, len(args))
	}
	regs := make([]uint64, fn.NumRegs)
	copy(regs, args)
	blk := fn.Entry()
	pc := 0
	for {
		if pc >= len(blk.Instrs) {
			return 0, fmt.Errorf("interp: fell off block %s/%s", fn.Name, blk.Name)
		}
		in := blk.Instrs[pc]
		m.steps++
		if m.steps > m.refBudget() {
			return 0, ErrStepBudget
		}
		if m.Hooks.OnInstr != nil {
			m.Hooks.OnInstr(fn, in)
		}
		switch in.Op {
		case ir.OpConst:
			regs[in.Dst] = in.Imm
		case ir.OpMov:
			regs[in.Dst] = regs[in.A]
		case ir.OpBin:
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
			if m.Hooks.OnMem != nil {
				m.Hooks.OnMem(MemAccess{Addr: addr, Size: in.Size})
			}
			regs[in.Dst] = refRead(m.Mem, addr, in.Size)
		case ir.OpStore:
			addr := regs[in.A] + in.Imm
			if m.Hooks.OnMem != nil {
				m.Hooks.OnMem(MemAccess{Addr: addr, Size: in.Size, IsWrite: true})
			}
			refWrite(m.Mem, addr, regs[in.B], in.Size)
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
			callArgs := make([]uint64, len(in.Args))
			for i, a := range in.Args {
				callArgs[i] = regs[a]
			}
			ret, err := m.refRun(in.Callee, callArgs)
			if err != nil {
				return 0, err
			}
			if in.Dst != ir.NoReg {
				regs[in.Dst] = ret
			}
		case ir.OpRet:
			if in.A == ir.NoReg {
				return 0, nil
			}
			return regs[in.A], nil
		case ir.OpAlloc:
			regs[in.Dst] = m.Alloc(regs[in.A])
		case ir.OpHavoc:
			h := m.Mod.Hashes[in.HashID]
			key := make([]byte, in.Imm)
			m.Mem.ReadBytes(regs[in.A], key)
			if m.Hooks.OnMem != nil {
				for off := uint64(0); off < in.Imm; off += 8 {
					sz := in.Imm - off
					if sz > 8 {
						sz = 8
					}
					m.Hooks.OnMem(MemAccess{Addr: regs[in.A] + off, Size: uint8(sz)})
				}
			}
			mask := uint64(1)<<uint(h.Bits) - 1
			if h.Bits >= 64 {
				mask = ^uint64(0)
			}
			regs[in.Dst] = h.Fn(key) & mask
		default:
			return 0, fmt.Errorf("interp: bad opcode %d in %s", in.Op, fn.Name)
		}
		if m.Hooks.OnDef != nil {
			if d := in.Def(); d != ir.NoReg {
				m.Hooks.OnDef(fn, in, regs[d])
			}
		}
		pc++
	}
}

func refRead(m *Memory, addr uint64, size uint8) uint64 {
	var buf [8]byte
	m.ReadBytes(addr, buf[:size])
	switch size {
	case 1:
		return uint64(buf[0])
	case 2:
		return uint64(binary.BigEndian.Uint16(buf[:2]))
	case 4:
		return uint64(binary.BigEndian.Uint32(buf[:4]))
	case 8:
		return binary.BigEndian.Uint64(buf[:8])
	}
	panic("interp: bad read size")
}

func refWrite(m *Memory, addr uint64, v uint64, size uint8) {
	var buf [8]byte
	switch size {
	case 1:
		buf[0] = byte(v)
	case 2:
		binary.BigEndian.PutUint16(buf[:2], uint16(v))
	case 4:
		binary.BigEndian.PutUint32(buf[:4], uint32(v))
	case 8:
		binary.BigEndian.PutUint64(buf[:8], v)
	default:
		panic("interp: bad write size")
	}
	m.WriteBytes(addr, buf[:size])
}

// Digest hashes the materialized pages in address order, for comparing
// what two machines left in memory.
func (m *Memory) Digest() uint64 {
	idx := make([]uint64, 0, len(m.pages))
	for i := range m.pages {
		idx = append(idx, i)
	}
	sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })
	h := fnv.New64a()
	var b [8]byte
	for _, i := range idx {
		binary.BigEndian.PutUint64(b[:], i)
		h.Write(b[:])
		h.Write(m.pages[i][:])
	}
	return h.Sum64()
}

package interp_test

import (
	"errors"
	"fmt"
	"testing"

	"castan/internal/interp"
	"castan/internal/ir"
	"castan/internal/nf"
	"castan/internal/workload"
)

// events folds a machine's hook calls into a running FNV-1a digest and
// keeps the counts OpCounts and Steps are checked against.
type events struct {
	digest uint64
	instrs int
	counts interp.OpCounts
}

func (e *events) mix(vs ...uint64) {
	for _, v := range vs {
		for i := 0; i < 8; i++ {
			e.digest = (e.digest ^ (v >> (8 * i) & 0xff)) * 0x100000001b3
		}
	}
}

func (e *events) hooks() interp.Hooks {
	return interp.Hooks{
		OnInstr: func(fn *ir.Func, in *ir.Instr) {
			e.instrs++
			e.counts.Op[in.Op]++
			if in.Op == ir.OpBin {
				e.counts.Bin[in.Bin]++
			}
			e.mix(1, uint64(len(fn.Name)), uint64(in.Op), uint64(in.Bin), uint64(in.Pred), uint64(in.Dst), uint64(in.A), uint64(in.B), in.Imm)
		},
		OnMem: func(a interp.MemAccess) {
			w := uint64(0)
			if a.IsWrite {
				w = 1
			}
			e.mix(2, a.Addr, uint64(a.Size), w)
		},
		OnDef: func(fn *ir.Func, in *ir.Instr, val uint64) {
			e.mix(3, uint64(in.Op), uint64(in.Dst), val)
		},
	}
}

// both runs one call on the machine under test and on the reference and
// requires the same outcome, the same events and the same accounting.
func both(t *testing.T, what string, got, ref *interp.Machine, ge, re *events, fn string, args ...uint64) error {
	t.Helper()
	ge.instrs, ge.counts = 0, interp.OpCounts{}
	gv, gerr := got.Call(fn, args...)
	rv, rerr := ref.RefCall(fn, args...)
	if gv != rv || fmt.Sprint(gerr) != fmt.Sprint(rerr) {
		t.Fatalf("%s: Call = %d, %v; reference %d, %v", what, gv, gerr, rv, rerr)
	}
	if ge.digest != re.digest {
		t.Fatalf("%s: hook event streams diverge", what)
	}
	if got.Hooks.OnInstr != nil {
		if got.Steps() != ge.instrs {
			t.Fatalf("%s: Steps() = %d, OnInstr fired %d times", what, got.Steps(), ge.instrs)
		}
		if *got.OpCounts() != ge.counts {
			t.Fatalf("%s: OpCounts() = %v, hooks counted %v", what, *got.OpCounts(), ge.counts)
		}
	}
	return gerr
}

// TestRunMatchesReference holds Call to the interpreter loop it replaced
// on every catalog NF under uniform and Zipfian traffic: return values,
// the OnInstr/OnMem/OnDef event streams, Steps and OpCounts, and what is
// left in memory — hooked and bare.
func TestRunMatchesReference(t *testing.T) {
	const packets = 2048
	for _, name := range nf.Names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			prof := workload.ProfileFor(name)
			zipf, err := workload.Zipfian(prof, packets, 256, 7)
			if err != nil {
				t.Fatal(err)
			}
			frames := append(workload.UniRand(prof, packets, 7).Frames, zipf.Frames...)
			for _, hooked := range []bool{true, false} {
				got, err := nf.New(name)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := nf.New(name)
				if err != nil {
					t.Fatal(err)
				}
				var ge, re events
				if hooked {
					got.Machine.Hooks, ref.Machine.Hooks = ge.hooks(), re.hooks()
				}
				for i, fr := range frames {
					got.Machine.Mem.WriteBytes(ir.PacketBase, fr)
					ref.Machine.Mem.WriteBytes(ir.PacketBase, fr)
					what := fmt.Sprintf("hooked=%v packet %d", hooked, i)
					if err := both(t, what, got.Machine, ref.Machine, &ge, &re, "nf_process", ir.PacketBase, uint64(len(fr))); err != nil {
						t.Fatalf("%s: %v", what, err)
					}
				}
				if g, r := got.Machine.Mem.Digest(), ref.Machine.Mem.Digest(); g != r {
					t.Errorf("hooked=%v: memory digest %#x, reference %#x", hooked, g, r)
				}
				if g, r := got.Machine.HeapUsed(), ref.Machine.HeapUsed(); g != r {
					t.Errorf("hooked=%v: heap used %d, reference %d", hooked, g, r)
				}
				// Wrong arity, then a budget too small for one packet.
				var none events
				if err := both(t, "arity", got.Machine, ref.Machine, &none, &none, "nf_process", 1); err == nil {
					t.Error("wrong arity accepted")
				}
				if name == "nop" {
					continue // two instructions: no budget is too small
				}
				got.Machine.MaxSteps, ref.Machine.MaxSteps = 3, 3
				if err := both(t, "budget", got.Machine, ref.Machine, &ge, &re, "nf_process", ir.PacketBase, 64); !errors.Is(err, interp.ErrStepBudget) {
					t.Errorf("3-step budget: %v", err)
				}
				if got.Machine.Steps() != 3 {
					t.Errorf("exhausted Call reports %d steps, want 3", got.Machine.Steps())
				}
			}
		})
	}
}

// TestRegisterStackGrowsUnderLiveFrames runs a call chain much deeper
// than the register stack starts out, on a fresh machine so that the
// stack is outgrown several times while callers' frames are live. Every
// level keeps values in registers across its call and folds them into
// the result afterwards, so a frame lost to the growth changes the
// answer; the leaf reads a register nothing wrote, so a frame carved out
// of used stack without being zeroed changes it too.
func TestRegisterStackGrowsUnderLiveFrames(t *testing.T) {
	const depth = 40
	m := ir.NewModule("deep")
	g := m.AddGlobal("scratch", 64, 0)
	m.Layout()
	pk := m.NewFunc("peek", 1)
	pk.Ret(pk.Add(pk.Param(0), pk.NewReg()))
	next := pk.Seal()
	for level := depth; level >= 0; level-- {
		fb := m.NewFunc(fmt.Sprintf("f%d", level), 2)
		x, y := fb.Param(0), fb.Param(1)
		// Plenty of live registers per frame.
		keep := make([]ir.Reg, 24)
		for i := range keep {
			keep[i] = fb.Add(fb.MulImm(x, uint64(i+3)), fb.AddImm(y, uint64(level*131+i)))
		}
		acc := fb.Var(fb.Xor(x, y))
		fb.Store(fb.GlobalAddr(g), 0, keep[5], 8)
		if level == depth {
			acc.Set(fb.Add(acc.R(), fb.Call(next, keep[1])))
		} else {
			acc.Set(fb.Add(acc.R(), fb.Call(next, keep[1], keep[2])))
		}
		acc.Set(fb.Add(acc.R(), fb.Load(fb.GlobalAddr(g), 0, 8)))
		for _, k := range keep {
			acc.Set(fb.Add(fb.MulImm(acc.R(), 31), k))
		}
		fb.Ret(acc.R())
		next = fb.Seal()
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	got, ref := interp.NewMachine(m), interp.NewMachine(m)
	var ge, re events
	got.Hooks, ref.Hooks = ge.hooks(), re.hooks()
	for i := uint64(0); i < 3; i++ {
		if err := both(t, fmt.Sprintf("call %d", i), got, ref, &ge, &re, "f0", 2018+i, 7*i); err != nil {
			t.Fatal(err)
		}
	}
	// Shallow calls after the deep one are carved out of stack the deep
	// one dirtied, both the entry frame and the leaf's callee.
	if err := both(t, "leaf", got, ref, &ge, &re, fmt.Sprintf("f%d", depth), 5, 6); err != nil {
		t.Fatal(err)
	}
	if err := both(t, "peek", got, ref, &ge, &re, "peek", 5); err != nil {
		t.Fatal(err)
	}
}

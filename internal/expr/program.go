package expr

import "slices"

// Program is an expression compiled for repeated evaluation against a
// changing assignment: its DAG flattened into post-order (operands
// before their users, every shared sub-DAG once, one leaf per variable,
// ground subtrees folded to their value), its variables bound to slots
// of a caller-owned state vector, and the last value of every node kept
// so that a re-evaluation recomputes only what a changed variable
// reaches.
//
// Expr.Eval and Range remain the definition. A Program computes exactly
// what they compute (TestProgramMatchesTreeWalk) — through the same
// transfer functions — without maps, interfaces or recursion. A Program
// belongs to one goroutine.
type Program struct {
	// slots[j] is where local variable j (the j-th of the expression's
	// VarList) lives in the state vector passed to Eval and Range.
	slots []int32
	nodes []pnode
	// val and iv hold every node's value under Eval's and Range's
	// semantics; evalLeaf and rangeLeaf are the variable states those
	// were computed under. The two planes are used at different times
	// and drift apart.
	val                 []uint64
	iv                  []Interval
	evalLeaf, rangeLeaf []uint16
}

// pnode is one node. a, b, c index earlier nodes, except for OpVar,
// where a is the variable's local index. Ground nodes keep OpConst and
// are never recomputed: Compile wrote their value into both planes.
type pnode struct {
	op      Op
	a, b, c int32
	// dep has bit min(j, 63) set when the node depends on local
	// variable j: a node is recomputed only if dep meets the dirty set.
	// Variables past the 63rd share the top bit, which over-approximates
	// and so stays exact.
	dep uint64
}

func depBit(local int) uint64 {
	if local > 63 {
		local = 63
	}
	return 1 << uint(local)
}

// Free is the state of a variable that is not pinned: it ranges over
// [0,255] under Range and reads as 0 under Eval, like a variable missing
// from the maps Range and Expr.Eval take.
const Free uint16 = 256

// stale marks a leaf no plane has been computed under yet.
const stale uint16 = 0xffff

// Compiler turns expressions into Programs. Its scratch is reused from
// one Compile to the next, so a caller with many expressions to compile
// (the solver: every constraint of a query) pays for it once; the zero
// value is ready. A Compiler belongs to one goroutine.
type Compiler struct {
	vars  []VarID
	index map[*Expr]int32 // interior nodes already emitted, by identity
	leaf  []int32         // local variable -> its one leaf node, -1 until emitted
	nodes []pnode
	// ground lists the variable-free subtrees met, each evaluated once,
	// here, under both semantics (they differ: Range widens a wrapped sum
	// to Full where Eval wraps).
	ground []groundNode
}

type groundNode struct {
	node int32
	val  uint64
	rng  Interval
}

// Compile flattens e into a Program that reads e's j-th variable (in
// VarList order) from state[slots[j]]; slots is retained. It reads only
// immutable fields of the nodes below e and e's own VarList, so DAGs
// whose lazily cached fields are warm may be compiled from several
// goroutines at once, each with its own Compiler.
func (c *Compiler) Compile(e *Expr, slots []int32) *Program {
	c.vars = e.VarList()
	if len(slots) != len(c.vars) {
		panic("expr: Compile needs one slot per variable")
	}
	if c.index == nil {
		c.index = make(map[*Expr]int32, 32)
	}
	clear(c.index)
	c.leaf = c.leaf[:0]
	for range c.vars {
		c.leaf = append(c.leaf, -1)
	}
	c.nodes, c.ground = c.nodes[:0], c.ground[:0]
	c.emit(e)

	p := &Program{
		slots: slots,
		nodes: slices.Clone(c.nodes),
		val:   make([]uint64, len(c.nodes)),
		iv:    make([]Interval, len(c.nodes)),
	}
	leaves := make([]uint16, 2*len(c.vars))
	for i := range leaves {
		leaves[i] = stale
	}
	p.evalLeaf, p.rangeLeaf = leaves[:len(c.vars)], leaves[len(c.vars):]
	for _, g := range c.ground {
		p.val[g.node], p.iv[g.node] = g.val, g.rng
	}
	return p
}

func (c *Compiler) emit(e *Expr) int32 {
	var n pnode
	switch {
	case !e.HasVars():
		n.op = OpConst
		c.ground = append(c.ground, groundNode{int32(len(c.nodes)), e.Eval(nil), Range(e, nil)})
	case e.Op == OpVar:
		// Var(id) allocates, so one variable is usually many nodes.
		local, _ := slices.BinarySearch(c.vars, e.Var)
		if i := c.leaf[local]; i >= 0 {
			return i
		}
		c.leaf[local] = int32(len(c.nodes))
		n = pnode{op: OpVar, a: int32(local), dep: depBit(local)}
	default:
		if i, ok := c.index[e]; ok {
			return i
		}
		n.op = e.Op
		n.a = c.emit(e.A)
		n.b = c.emit(e.B)
		n.dep = c.nodes[n.a].dep | c.nodes[n.b].dep
		if e.Op == OpIte {
			n.c = c.emit(e.C)
			n.dep |= c.nodes[n.c].dep
		}
		c.index[e] = int32(len(c.nodes))
	}
	c.nodes = append(c.nodes, n)
	return int32(len(c.nodes) - 1)
}

// Rebind makes the program read its j-th variable from state[slots[j]]
// from now on, in whatever state vector the next call passes; slots is
// retained. The planes stay valid: each holds node values beside the
// variable states they were computed under, and the next Eval, Range or
// RangeOver recomputes what every variable whose state differs reaches.
func (p *Program) Rebind(slots []int32) {
	if len(slots) != len(p.slots) {
		panic("expr: Rebind needs one slot per variable")
	}
	p.slots = slots
}

// sync copies the current variable states into seen and returns the
// dirty set: the dep bits of every variable whose state changed.
func (p *Program) sync(seen []uint16, state []uint16) uint64 {
	var dirty uint64
	for j, s := range p.slots {
		if cur := state[s]; cur != seen[j] {
			seen[j] = cur
			dirty |= depBit(j)
		}
	}
	return dirty
}

// Eval returns the expression's value under state, as Expr.Eval would.
func (p *Program) Eval(state []uint16) uint64 {
	val := p.val
	if dirty := p.sync(p.evalLeaf, state); dirty != 0 {
		for i := range p.nodes {
			n := &p.nodes[i]
			if n.dep&dirty == 0 {
				continue
			}
			switch n.op {
			case OpVar:
				val[i] = uint64(p.evalLeaf[n.a] & 0xff) // Free reads as 0
			case OpIte:
				if val[n.a] != 0 {
					val[i] = val[n.b]
				} else {
					val[i] = val[n.c]
				}
			default:
				val[i] = binConst(n.op, val[n.a], val[n.b])
			}
		}
	}
	return val[len(val)-1]
}

// Range returns the expression's interval under state, as Range would.
func (p *Program) Range(state []uint16) Interval {
	if dirty := p.sync(p.rangeLeaf, state); dirty != 0 {
		p.rangeFrom(dirty, -1, Interval{})
	}
	return p.iv[len(p.iv)-1]
}

// RangeOver returns the expression's interval under state, except that
// the variable in state slot `slot` ranges over `over` (a sub-interval
// of [0,255]) instead of reading state[slot]: Range's value with that
// one leaf widened. Every transfer function is inclusion-isotone
// (FuzzRangeIsotone), so the result contains what Range gives for each
// pin of the variable inside `over`. The slot must be one the program
// reads.
func (p *Program) RangeOver(state []uint16, slot int32, over Interval) Interval {
	j := int32(slices.Index(p.slots, slot))
	dirty := p.sync(p.rangeLeaf, state) | depBit(int(j))
	// The plane no longer holds state[slot]'s value at this leaf; marking
	// it stale makes the next Range or RangeOver recompute what it reaches.
	p.rangeLeaf[j] = stale
	p.rangeFrom(dirty, j, over)
	return p.iv[len(p.iv)-1]
}

// rangeFrom recomputes the Range plane's nodes that dirty reaches, with
// local variable `over` (none when -1) read as overIv.
func (p *Program) rangeFrom(dirty uint64, over int32, overIv Interval) {
	iv := p.iv
	for i := range p.nodes {
		n := &p.nodes[i]
		if n.dep&dirty == 0 {
			continue
		}
		switch n.op {
		case OpVar:
			switch s := p.rangeLeaf[n.a]; {
			case n.a == over:
				iv[i] = overIv
			case s == Free:
				iv[i] = Interval{0, 255}
			default:
				iv[i] = Interval{uint64(s), uint64(s)}
			}
		case OpIte:
			iv[i] = rangeIte(iv[n.a], iv[n.b], iv[n.c])
		default:
			iv[i] = rangeBin(n.op, iv[n.a], iv[n.b])
		}
	}
}

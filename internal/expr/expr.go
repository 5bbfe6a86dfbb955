// Package expr implements the bitvector expression language shared by the
// symbolic-execution engine (internal/symbex) and the constraint solver
// (internal/solver).
//
// All expressions denote 64-bit unsigned values. Symbolic variables denote
// single bytes (values 0..255) — in CASTAN the symbolic inputs are packet
// bytes — and wider symbolic values are built from bytes with shifts and
// ors, mirroring how the IR network functions load multi-byte header
// fields. Comparison expressions evaluate to 0 or 1.
//
// Expressions are immutable. Constructors apply local simplifications
// (constant folding, identity/annihilator elimination), so the DAGs that
// reach the solver stay small even after long symbolic executions.
package expr

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

// Op enumerates expression node kinds.
type Op uint8

// Expression node kinds.
const (
	OpConst Op = iota // literal 64-bit value
	OpVar             // symbolic byte variable
	OpAdd
	OpSub
	OpMul
	OpAnd
	OpOr
	OpXor
	OpShl  // logical shift left  (shift amounts >= 64 yield 0)
	OpLshr // logical shift right (shift amounts >= 64 yield 0)
	OpUDiv // unsigned division   (x / 0 == 0, matching the IR's semantics)
	OpURem // unsigned remainder  (x % 0 == x)
	OpEq   // 1 if a == b else 0
	OpNe
	OpUlt // unsigned <
	OpUle
	OpIte // cond (nonzero => then) : else
)

var opNames = [...]string{
	OpConst: "const", OpVar: "var",
	OpAdd: "add", OpSub: "sub", OpMul: "mul",
	OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpShl: "shl", OpLshr: "lshr", OpUDiv: "udiv", OpURem: "urem",
	OpEq: "eq", OpNe: "ne", OpUlt: "ult", OpUle: "ule",
	OpIte: "ite",
}

// String returns the mnemonic for the op.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// VarID identifies a symbolic byte variable. The symbex engine allocates
// IDs densely: packet p's byte b gets a deterministic ID so solver models
// map directly back onto packet buffers.
type VarID uint32

// Expr is an immutable expression node. Leaf nodes (OpConst, OpVar) use
// Val/Var; interior nodes use A, B, C (C only for OpIte: A=cond, B=then,
// C=else).
type Expr struct {
	Op  Op
	Val uint64 // OpConst
	Var VarID  // OpVar
	A   *Expr
	B   *Expr
	C   *Expr

	// concrete caches IsConst results for interior nodes: 0 unknown,
	// 1 concrete, 2 symbolic.
	concrete uint8
	vcount   int32 // cached number of distinct vars, -1 if unknown
	// msk is an upper bound on the bits the value can have set, computed
	// eagerly by the constructors. It powers the algebraic rewrites that
	// collapse byte-extract/concat round-trips.
	msk uint64
	// fp is a structural fingerprint: equal-structure expressions share
	// it (with overwhelming probability), even across distinct nodes.
	fp uint64
	// vlist caches the sorted, deduplicated variables of the subtree
	// (computed lazily; nil until first use, Expr is immutable after).
	vlist []VarID
}

// Fingerprint returns the node's structural fingerprint.
func (e *Expr) Fingerprint() uint64 { return e.fp }

func fpMix(vals ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		h ^= v
		h *= 0xff51afd7ed558ccd
		h ^= h >> 31
	}
	return h
}

// Mask returns the node's known possible-bits mask.
func (e *Expr) Mask() uint64 { return e.msk }

// coverMask returns the all-ones mask covering every bit up to m's MSB.
func coverMask(m uint64) uint64 {
	if m == 0 {
		return 0
	}
	n := bits.Len64(m)
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << n) - 1
}

// addMask bounds the possible bits of a sum.
func addMask(a, b uint64) uint64 {
	if a == 0 {
		return b
	}
	if b == 0 {
		return a
	}
	n := bits.Len64(a)
	if bits.Len64(b) > n {
		n = bits.Len64(b)
	}
	if n >= 63 {
		return ^uint64(0)
	}
	return (uint64(1) << (n + 1)) - 1
}

// computeMask derives a node's mask from its children.
func computeMask(op Op, a, b *Expr) uint64 {
	switch op {
	case OpAdd:
		return addMask(a.msk, b.msk)
	case OpSub:
		if bm, ok := b.IsConst(); ok && bm == 0 {
			return a.msk
		}
		return ^uint64(0)
	case OpMul:
		if a.msk == 0 || b.msk == 0 {
			return 0
		}
		n := bits.Len64(a.msk) + bits.Len64(b.msk)
		if n >= 64 {
			return ^uint64(0)
		}
		return (uint64(1) << n) - 1
	case OpAnd:
		return a.msk & b.msk
	case OpOr, OpXor:
		return a.msk | b.msk
	case OpShl:
		if sh, ok := b.IsConst(); ok {
			if sh >= 64 {
				return 0
			}
			return a.msk << sh
		}
		return ^uint64(0)
	case OpLshr:
		if sh, ok := b.IsConst(); ok {
			if sh >= 64 {
				return 0
			}
			return coverMask(a.msk) >> sh
		}
		return coverMask(a.msk)
	case OpUDiv, OpURem:
		return coverMask(a.msk)
	case OpEq, OpNe, OpUlt, OpUle:
		return 1
	}
	return ^uint64(0)
}

// Const returns a literal expression.
func Const(v uint64) *Expr {
	return &Expr{Op: OpConst, Val: v, concrete: 1, msk: v, fp: fpMix(uint64(OpConst), v)}
}

// Bool returns Const(1) or Const(0).
func Bool(b bool) *Expr {
	if b {
		return one
	}
	return zero
}

var (
	zero = Const(0)
	one  = Const(1)
)

// Var returns a symbolic byte variable expression.
func Var(id VarID) *Expr {
	return &Expr{Op: OpVar, Var: id, concrete: 2, vcount: 1, msk: 0xff, fp: fpMix(uint64(OpVar), uint64(id))}
}

// IsConst reports whether e contains no variables, returning its value.
func (e *Expr) IsConst() (uint64, bool) {
	if e.Op == OpConst {
		return e.Val, true
	}
	return 0, false
}

// IsBool reports whether e is the constant 0 or 1, common for folded
// comparisons.
func (e *Expr) IsBool() (bool, bool) {
	if v, ok := e.IsConst(); ok && v <= 1 {
		return v == 1, true
	}
	return false, false
}

func binConst(op Op, a, b uint64) uint64 {
	switch op {
	case OpAdd:
		return a + b
	case OpSub:
		return a - b
	case OpMul:
		return a * b
	case OpAnd:
		return a & b
	case OpOr:
		return a | b
	case OpXor:
		return a ^ b
	case OpShl:
		if b >= 64 {
			return 0
		}
		return a << b
	case OpLshr:
		if b >= 64 {
			return 0
		}
		return a >> b
	case OpUDiv:
		if b == 0 {
			return 0
		}
		return a / b
	case OpURem:
		if b == 0 {
			return a
		}
		return a % b
	case OpEq:
		return b2u(a == b)
	case OpNe:
		return b2u(a != b)
	case OpUlt:
		return b2u(a < b)
	case OpUle:
		return b2u(a <= b)
	}
	panic("expr: binConst on non-binary op " + op.String())
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// New builds a binary expression with local simplification.
func New(op Op, a, b *Expr) *Expr {
	av, aok := a.IsConst()
	bv, bok := b.IsConst()
	if aok && bok {
		return Const(binConst(op, av, bv))
	}
	switch op {
	case OpAdd:
		if aok && av == 0 {
			return b
		}
		if bok && bv == 0 {
			return a
		}
	case OpSub:
		if bok && bv == 0 {
			return a
		}
		if a == b {
			return zero
		}
	case OpMul:
		if aok {
			if av == 0 {
				return zero
			}
			if av == 1 {
				return b
			}
		}
		if bok {
			if bv == 0 {
				return zero
			}
			if bv == 1 {
				return a
			}
		}
	case OpAnd:
		if aok {
			a, b = b, a
			av, aok, bv, bok = bv, bok, av, aok
		}
		if bok {
			if a.msk&bv == 0 {
				return zero // no possible bit survives the mask
			}
			if a.msk&^bv == 0 {
				return a // the mask covers everything a can set
			}
			// Distribute into an Or whose halves have disjoint coverage:
			// this is what collapses byte/field extraction from
			// concatenations.
			if a.Op == OpOr {
				if a.A.msk&bv == 0 {
					return New(OpAnd, a.B, b)
				}
				if a.B.msk&bv == 0 {
					return New(OpAnd, a.A, b)
				}
				if a.A.msk&a.B.msk == 0 {
					return New(OpOr, New(OpAnd, a.A, b), New(OpAnd, a.B, b))
				}
			}
			// (x<<k) & m  ==  (x & (m>>k)) << k — bits of x<<k below k are
			// zero, so masking commutes with the shift.
			if a.Op == OpShl {
				if sh, ok := a.B.IsConst(); ok && sh < 64 {
					return New(OpShl, New(OpAnd, a.A, Const(bv>>sh)), a.B)
				}
			}
		}
		if a == b {
			return a
		}
	case OpOr:
		if aok && av == 0 {
			return b
		}
		if bok && bv == 0 {
			return a
		}
		if a == b {
			return a
		}
	case OpXor:
		if aok && av == 0 {
			return b
		}
		if bok && bv == 0 {
			return a
		}
		if a == b {
			return zero
		}
	case OpShl:
		if bok && bv == 0 {
			return a
		}
		if bok && bv >= 64 {
			return zero
		}
		if aok && av == 0 {
			return zero
		}
	case OpLshr:
		if bok && bv == 0 {
			return a
		}
		if bok && (bv >= 64 || a.msk>>bv == 0) {
			return zero
		}
		if aok && av == 0 {
			return zero
		}
		if bok {
			// Drop Or-halves entirely below the shift.
			if a.Op == OpOr {
				if a.B.msk>>bv == 0 {
					return New(OpLshr, a.A, b)
				}
				if a.A.msk>>bv == 0 {
					return New(OpLshr, a.B, b)
				}
			}
			// Cancel against an inner left shift when no bits were lost.
			if a.Op == OpShl {
				if sh, ok := a.B.IsConst(); ok && sh < 64 {
					if a.A.msk<<sh>>sh == a.A.msk { // lossless shl
						switch {
						case sh == bv:
							return a.A
						case sh > bv:
							return New(OpShl, a.A, Const(sh-bv))
						default:
							return New(OpLshr, a.A, Const(bv-sh))
						}
					}
				}
			}
		}
	case OpEq:
		if a == b {
			return one
		}
		// eq(eq(x,y),1) => eq(x,y); eq(cmp,0) => not
		if bok && isCmp(a.Op) {
			if bv == 1 {
				return a
			}
			if bv == 0 {
				return Not(a)
			}
			return zero
		}
	case OpNe:
		if a == b {
			return zero
		}
		if bok && isCmp(a.Op) {
			if bv == 0 {
				return a
			}
			if bv == 1 {
				return Not(a)
			}
			return one
		}
	case OpUlt:
		if a == b {
			return zero
		}
		if bok && bv == 0 {
			return zero // nothing is < 0 unsigned
		}
		if aok && av == ^uint64(0) {
			return zero
		}
	case OpUle:
		if a == b {
			return one
		}
		if aok && av == 0 {
			return one
		}
		if bok && bv == ^uint64(0) {
			return one
		}
	}
	return &Expr{Op: op, A: a, B: b, msk: computeMask(op, a, b), fp: fpMix(uint64(op), a.fp, b.fp)}
}

func isCmp(op Op) bool {
	switch op {
	case OpEq, OpNe, OpUlt, OpUle:
		return true
	}
	return false
}

// Convenience constructors.

// Add returns a+b.
func Add(a, b *Expr) *Expr { return New(OpAdd, a, b) }

// Sub returns a-b.
func Sub(a, b *Expr) *Expr { return New(OpSub, a, b) }

// Mul returns a*b.
func Mul(a, b *Expr) *Expr { return New(OpMul, a, b) }

// And returns a&b.
func And(a, b *Expr) *Expr { return New(OpAnd, a, b) }

// Or returns a|b.
func Or(a, b *Expr) *Expr { return New(OpOr, a, b) }

// Xor returns a^b.
func Xor(a, b *Expr) *Expr { return New(OpXor, a, b) }

// Shl returns a<<b.
func Shl(a, b *Expr) *Expr { return New(OpShl, a, b) }

// Lshr returns a>>b.
func Lshr(a, b *Expr) *Expr { return New(OpLshr, a, b) }

// Eq returns a==b as 0/1.
func Eq(a, b *Expr) *Expr { return New(OpEq, a, b) }

// Ne returns a!=b as 0/1.
func Ne(a, b *Expr) *Expr { return New(OpNe, a, b) }

// Ult returns a<b (unsigned) as 0/1.
func Ult(a, b *Expr) *Expr { return New(OpUlt, a, b) }

// Ule returns a<=b (unsigned) as 0/1.
func Ule(a, b *Expr) *Expr { return New(OpUle, a, b) }

// Ite returns cond!=0 ? then : els.
func Ite(cond, then, els *Expr) *Expr {
	if v, ok := cond.IsConst(); ok {
		if v != 0 {
			return then
		}
		return els
	}
	if then == els {
		return then
	}
	return &Expr{
		Op: OpIte, A: cond, B: then, C: els,
		msk: then.msk | els.msk,
		fp:  fpMix(uint64(OpIte), cond.fp, then.fp, els.fp),
	}
}

// Not returns the boolean negation of a comparison (or tests e == 0 for a
// general expression).
func Not(e *Expr) *Expr {
	switch e.Op {
	case OpEq:
		return &Expr{Op: OpNe, A: e.A, B: e.B, msk: 1, fp: fpMix(uint64(OpNe), e.A.fp, e.B.fp)}
	case OpNe:
		return &Expr{Op: OpEq, A: e.A, B: e.B, msk: 1, fp: fpMix(uint64(OpEq), e.A.fp, e.B.fp)}
	case OpUlt:
		return New(OpUle, e.B, e.A)
	case OpUle:
		return New(OpUlt, e.B, e.A)
	case OpConst:
		return Bool(e.Val == 0)
	}
	return Eq(e, zero)
}

// Truth coerces an arbitrary expression to a boolean constraint
// (e interpreted as "e != 0").
func Truth(e *Expr) *Expr {
	if isCmp(e.Op) {
		return e
	}
	if v, ok := e.IsConst(); ok {
		return Bool(v != 0)
	}
	return Ne(e, zero)
}

// Eval computes e under the assignment vals (mapping every variable in e).
// Missing variables evaluate as 0.
func (e *Expr) Eval(vals map[VarID]uint64) uint64 {
	switch e.Op {
	case OpConst:
		return e.Val
	case OpVar:
		return vals[e.Var] & 0xff
	case OpIte:
		if e.A.Eval(vals) != 0 {
			return e.B.Eval(vals)
		}
		return e.C.Eval(vals)
	default:
		return binConst(e.Op, e.A.Eval(vals), e.B.Eval(vals))
	}
}

// VarList returns the sorted distinct variables of e. The result is
// cached on the node and must not be mutated.
func (e *Expr) VarList() []VarID {
	if e.vlist != nil || !e.HasVars() {
		return e.vlist
	}
	switch e.Op {
	case OpVar:
		e.vlist = []VarID{e.Var}
	case OpIte:
		e.vlist = mergeVars(mergeVars(e.A.VarList(), e.B.VarList()), e.C.VarList())
	default:
		e.vlist = mergeVars(e.A.VarList(), e.B.VarList())
	}
	return e.vlist
}

// mergeVars merges two sorted deduplicated lists.
func mergeVars(a, b []VarID) []VarID {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]VarID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// NumVars returns the number of distinct variables in e.
func (e *Expr) NumVars() int { return len(e.VarList()) }

// HasVars reports whether e contains any symbolic variable.
func (e *Expr) HasVars() bool {
	switch e.concrete {
	case 1:
		return false
	case 2:
		return true
	}
	var has bool
	switch e.Op {
	case OpConst:
		has = false
	case OpVar:
		has = true
	case OpIte:
		has = e.A.HasVars() || e.B.HasVars() || e.C.HasVars()
	default:
		has = e.A.HasVars() || e.B.HasVars()
	}
	if has {
		e.concrete = 2
	} else {
		e.concrete = 1
	}
	return has
}

// Pinner replaces some of an expression's variables by byte constants
// and folds what that decides. The result is the node a substitution
// through the constructors (New, Ite) would build, but a subtree whose
// variables are all pinned is folded by value: no constant is built for
// it unless a node that survives the pinning takes it as an operand.
// Its scratch is reused from one Pin to the next; a Pinner belongs to
// one goroutine.
//
// Node identity is what a node-by-node rebuild would give wherever the
// constructors compare operands by identity (Ite's then == els, New's
// a == b): a shared interior node is rewritten once, so all its users
// get one result, while a pinned leaf becomes a fresh constant at each
// use.
type Pinner struct {
	vars []VarID
	pins []uint16
	// memo maps an interior node to the cell holding its result.
	memo  map[*Expr]int32
	cells []pinCell
}

// pinCell is one rewritten node. When folded, the result is the
// constant val, and e stays nil until some node needs it as an operand;
// otherwise e is the result node.
type pinCell struct {
	e      *Expr
	val    uint64
	folded bool
}

// Pin returns e with its j-th variable (in VarList order) replaced by
// the constant pins[j], or kept where pins[j] is Free.
func (p *Pinner) Pin(e *Expr, pins []uint16) *Expr {
	if !e.HasVars() {
		return e
	}
	p.vars, p.pins = e.VarList(), pins
	if len(pins) != len(p.vars) {
		panic("expr: Pin needs one pin per variable")
	}
	if p.memo == nil {
		p.memo = make(map[*Expr]int32, 32)
	}
	clear(p.memo)
	p.cells = p.cells[:0]
	return p.node(p.rewrite(e))
}

// node returns cell i's result node, building its constant on first need.
func (p *Pinner) node(i int32) *Expr {
	c := &p.cells[i]
	if c.e == nil {
		c.e = Const(c.val)
	}
	return c.e
}

func (p *Pinner) add(c pinCell) int32 {
	p.cells = append(p.cells, c)
	return int32(len(p.cells) - 1)
}

// result files the node a constructor returned.
func (p *Pinner) result(r *Expr) int32 {
	return p.add(pinCell{e: r, val: r.Val, folded: r.Op == OpConst})
}

func (p *Pinner) rewrite(e *Expr) int32 {
	if !e.HasVars() {
		return p.result(e)
	}
	if e.Op == OpVar {
		// Leaves get no memo entry: each use of a pinned one is its own
		// (fresh) constant.
		j, _ := slices.BinarySearch(p.vars, e.Var)
		if s := p.pins[j]; s != Free {
			return p.add(pinCell{val: uint64(s & 0xff), folded: true})
		}
		return p.add(pinCell{e: e})
	}
	if i, ok := p.memo[e]; ok {
		return i
	}
	var r int32
	if e.Op == OpIte {
		r = p.rewriteIte(e)
	} else {
		a, b := p.rewrite(e.A), p.rewrite(e.B)
		if ca, cb := p.cells[a], p.cells[b]; ca.folded && cb.folded {
			r = p.add(pinCell{val: binConst(e.Op, ca.val, cb.val), folded: true})
		} else {
			r = p.result(New(e.Op, p.node(a), p.node(b)))
		}
	}
	p.memo[e] = r
	return r
}

// rewriteIte mirrors Ite: a decided condition yields its arm's own
// cell, so the arm keeps its identity; arms that are one node collapse.
func (p *Pinner) rewriteIte(e *Expr) int32 {
	cond := p.rewrite(e.A)
	if c := p.cells[cond]; c.folded {
		if c.val != 0 {
			return p.rewrite(e.B)
		}
		return p.rewrite(e.C)
	}
	then, els := p.rewrite(e.B), p.rewrite(e.C)
	// Distinct cells are one node only if both are built: a constant not
	// built yet would be fresh.
	if t, f := p.cells[then], p.cells[els]; then == els || t.e != nil && t.e == f.e {
		return then
	}
	return p.result(Ite(p.node(cond), p.node(then), p.node(els)))
}

// String renders e in prefix form, e.g. "(add v3 (mul v4 0x2))".
func (e *Expr) String() string {
	var b strings.Builder
	e.write(&b, 0)
	return b.String()
}

const maxRenderDepth = 12

func (e *Expr) write(b *strings.Builder, depth int) {
	if depth > maxRenderDepth {
		b.WriteString("…")
		return
	}
	switch e.Op {
	case OpConst:
		fmt.Fprintf(b, "%#x", e.Val)
	case OpVar:
		fmt.Fprintf(b, "v%d", e.Var)
	case OpIte:
		b.WriteString("(ite ")
		e.A.write(b, depth+1)
		b.WriteByte(' ')
		e.B.write(b, depth+1)
		b.WriteByte(' ')
		e.C.write(b, depth+1)
		b.WriteByte(')')
	default:
		b.WriteByte('(')
		b.WriteString(e.Op.String())
		b.WriteByte(' ')
		e.A.write(b, depth+1)
		b.WriteByte(' ')
		e.B.write(b, depth+1)
		b.WriteByte(')')
	}
}

// Byte returns the expression selecting byte i (0 = least significant) of e.
func Byte(e *Expr, i int) *Expr {
	return And(Lshr(e, Const(uint64(i)*8)), Const(0xff))
}

// ConcatBytes assembles a big-endian word from byte expressions: the first
// element becomes the most significant byte. This is how the IR NFs load
// multi-byte header fields.
func ConcatBytes(bs ...*Expr) *Expr {
	acc := zero
	for _, b := range bs {
		acc = Or(Shl(acc, Const(8)), And(b, Const(0xff)))
	}
	return acc
}

// SameStructure reports whether a and b are the same expression node
// for node: equal ops, constants and variables throughout. False may
// also mean "too expensive to tell" — two distinct DAGs are compared as
// trees, so the walk gives up after a fixed number of nodes — which is
// the safe answer for callers that use a true to drop a duplicate.
func SameStructure(a, b *Expr) bool {
	budget := 4096
	return sameStructure(a, b, &budget)
}

func sameStructure(a, b *Expr, budget *int) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil || a.fp != b.fp || a.Op != b.Op || a.Val != b.Val || a.Var != b.Var {
		return false
	}
	if *budget--; *budget < 0 {
		return false
	}
	return sameStructure(a.A, b.A, budget) && sameStructure(a.B, b.B, budget) && sameStructure(a.C, b.C, budget)
}

package expr

import (
	"math/rand"
	"testing"
)

// Substitute is the reference Pinner is held to: e with every variable
// replaced per vals (variables not in vals kept symbolic), rebuilt node
// by node through the constructors. The walk is DAG-aware: shared
// subtrees are rewritten once.
func (e *Expr) Substitute(vals map[VarID]uint64) *Expr {
	return e.substitute(vals, make(map[*Expr]*Expr, 32))
}

func (e *Expr) substitute(vals map[VarID]uint64, cache map[*Expr]*Expr) *Expr {
	if !e.HasVars() {
		return e
	}
	if e.Op == OpVar {
		if v, ok := vals[e.Var]; ok {
			return Const(v & 0xff)
		}
		return e
	}
	if r, ok := cache[e]; ok {
		return r
	}
	var r *Expr
	if e.Op == OpIte {
		r = Ite(e.A.substitute(vals, cache), e.B.substitute(vals, cache), e.C.substitute(vals, cache))
	} else {
		r = New(e.Op, e.A.substitute(vals, cache), e.B.substitute(vals, cache))
	}
	cache[e] = r
	return r
}

// pinDAG is randomDAG plus the shapes where a substitution's node
// identity shows: Ite arms that are one shared node, arms that are two
// Var nodes of one variable (two fresh constants once pinned, so they
// must not collapse), and arms built alike from different variables
// that pin to equal constants.
func pinDAG(rng *rand.Rand, nvars, size int) *Expr {
	pool := []*Expr{randomDAG(rng, nvars, size)}
	v := func() *Expr { return Var(VarID(rng.Intn(nvars)*5 + 2)) }
	pick := func() *Expr { return pool[rng.Intn(len(pool))] }
	for n := 2 + rng.Intn(6); n > 0; n-- {
		x := pick()
		var e *Expr
		switch rng.Intn(5) {
		case 0:
			c := v()
			e = &Expr{Op: OpIte, A: c, B: x, C: x, msk: x.msk, fp: fpMix(uint64(OpIte), c.fp, x.fp, x.fp)}
		case 1:
			w := v()
			e = Ite(pick(), Var(w.Var), Var(w.Var))
		case 2:
			k := Const(uint64(rng.Intn(4)))
			e = Ite(v(), Add(v(), k), Add(v(), k))
		case 3:
			e = Ite(x, New(OpAnd, v(), Const(1)), New(OpAnd, v(), Const(1)))
		default:
			e = New(Op(int(OpAdd)+rng.Intn(int(OpUle-OpAdd)+1)), x, pick())
		}
		pool = append(pool, e)
	}
	// One root over all of them, so every shape meets every pin set.
	root := pool[0]
	for _, e := range pool[1:] {
		root = &Expr{Op: OpXor, A: root, B: e, msk: ^uint64(0), fp: fpMix(uint64(OpXor), root.fp, e.fp)}
	}
	return root
}

// randomPins pins a random subset of e's variables, to few distinct
// values so that equal constants are common.
func randomPins(rng *rand.Rand, e *Expr) ([]uint16, map[VarID]uint64) {
	vars := e.VarList()
	pins := make([]uint16, len(vars))
	vals := map[VarID]uint64{}
	all := rng.Intn(4) == 0 // everything pinned: the whole DAG folds
	for j, v := range vars {
		if !all && rng.Intn(3) == 0 {
			pins[j] = Free
			continue
		}
		b := uint64(rng.Intn(3))
		if rng.Intn(2) == 0 {
			b = uint64(rng.Intn(256))
		}
		pins[j], vals[v] = uint16(b), b
	}
	return pins, vals
}

// sameDAG reports whether a and b are one DAG up to renaming nodes: the
// same structure, and two positions share a node in one exactly when
// they share it in the other.
func sameDAG(a, b *Expr, ab, ba map[*Expr]*Expr) bool {
	if a == nil || b == nil {
		return a == b
	}
	if m, ok := ab[a]; ok {
		return m == b
	}
	if m, ok := ba[b]; ok {
		return m == a
	}
	if a.Op != b.Op || a.Val != b.Val || a.Var != b.Var || a.fp != b.fp {
		return false
	}
	ab[a], ba[b] = b, a
	return sameDAG(a.A, b.A, ab, ba) && sameDAG(a.B, b.B, ab, ba) && sameDAG(a.C, b.C, ab, ba)
}

func checkPin(t *testing.T, p *Pinner, e *Expr, pins []uint16, vals map[VarID]uint64) {
	t.Helper()
	want := e.Substitute(vals)
	got := p.Pin(e, pins)
	if got.Fingerprint() != want.Fingerprint() || !SameStructure(got, want) {
		t.Fatalf("Pin = %v, Substitute = %v\nof %v under %v", got, want, e, vals)
	}
	if !sameDAG(got, want, map[*Expr]*Expr{}, map[*Expr]*Expr{}) {
		t.Fatalf("Pin shares nodes differently from Substitute: %v\nof %v under %v", got, e, vals)
	}
}

// TestPinMatchesSubstitute: the lean substitution builds what the
// node-by-node one builds, fingerprint, structure and sharing alike, on
// random DAGs under random pin sets, one Pinner reused throughout.
func TestPinMatchesSubstitute(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	var p Pinner
	for i := 0; i < 4000; i++ {
		e := pinDAG(rng, 1+rng.Intn(8), 4+rng.Intn(40))
		for n := 0; n < 4; n++ {
			pins, vals := randomPins(rng, e)
			checkPin(t, &p, e, pins, vals)
		}
	}
}

// TestPinIdentity pins the identity rules on hand-built cases: arms that
// are one folded node collapse, arms that are two uses of a pinned
// variable or equal folds of different variables do not.
func TestPinIdentity(t *testing.T) {
	var p Pinner
	x, y, c := Var(1), Var(2), Var(9)
	shared := Add(x, Const(3))
	collapse := &Expr{Op: OpIte, A: c, B: shared, C: shared, fp: fpMix(uint64(OpIte), c.fp, shared.fp, shared.fp)}
	twoUses := Ite(c, Var(1), Var(1))
	equalFolds := Ite(c, Add(x, Const(1)), Add(y, Const(0)))
	pins := []uint16{4, 5, Free} // v1, v2, v9
	if got := p.Pin(collapse, []uint16{4, Free}); got.Op != OpConst || got.Val != 7 {
		t.Errorf("Ite over one folded node pinned to %v, want the constant 7", got)
	}
	if got := p.Pin(twoUses, []uint16{4, Free}); got.Op != OpIte || got.B == got.C {
		t.Errorf("Ite over two uses of a pinned variable pinned to %v, want an Ite over two constants", got)
	}
	if got := p.Pin(equalFolds, pins); got.Op != OpIte || got.B == got.C {
		t.Errorf("Ite over equal folds pinned to %v, want an Ite over two constants", got)
	}
	if got := p.Pin(equalFolds, []uint16{Free, Free, Free}); got.Fingerprint() != equalFolds.Fingerprint() {
		t.Errorf("nothing pinned: %v, want %v", got, equalFolds)
	}
}

// FuzzPinMatchesSubstitute is TestPinMatchesSubstitute over fuzzed
// seeds and sizes.
func FuzzPinMatchesSubstitute(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(20))
	f.Add(int64(53), uint8(8), uint8(40))
	f.Add(int64(-7), uint8(1), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, nvars, size uint8) {
		rng := rand.New(rand.NewSource(seed))
		e := pinDAG(rng, 1+int(nvars%12), 1+int(size%64))
		var p Pinner
		for n := 0; n < 4; n++ {
			pins, vals := randomPins(rng, e)
			checkPin(t, &p, e, pins, vals)
		}
	})
}

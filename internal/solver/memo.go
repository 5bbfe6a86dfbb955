// Normalized-constraint query memo. Symbolic execution re-derives the
// same facts over and over: sibling states probing a ring or a hash
// table assert structurally identical constraint sets that differ only
// in which fresh havoc variables they mention. The memo is a
// canonical-key Unsat cache: each query is canonicalized — fold to truth
// form, drop tautologies by interval analysis, sort constraints by a
// rename-invariant shape, densely rename variables in canonical
// traversal order — and Unsat verdicts are cached under the key. Every
// solver behaves identically on Unsat (no model to act on), so replaying
// a cached Unsat is observationally equivalent to re-searching. Renaming
// is sound because every solver variable ranges over the same domain
// (one byte, 0..255): any variable bijection preserves satisfiability,
// so equal canonical keys are equisatisfiable.
//
// Sat results are never cached: their models steer path selection and
// pointer concretization, and replaying a stale searched model under a
// renamed key would change exploration order.
//
// castan.Analyze does not construct one: the cache has never hit on a
// catalog NF (DESIGN.md decision 14). It stays for bench/layers.go until
// the benchmark-only PR of ROADMAP item 2 unfreezes the name.
package solver

import (
	"sort"
	"strconv"

	"castan/internal/expr"
	"castan/internal/obs"
)

// memoMaxKey bounds the canonical key size; larger queries skip the
// memo (hashing pathological constraint sets would cost more than the
// search they save).
const memoMaxKey = 64 << 10

// Memo discharges qualifying queries without search: cached Unsat
// verdicts under canonical keys. It is not safe for concurrent use.
type Memo struct {
	// MinVar filters which queries participate: a constraint set is
	// memoized only if it mentions at least one variable >= MinVar.
	// The symbex engine sets this to its first havoc variable ID, so
	// only hash-probing queries (the ring NFs' hot path) are memoized
	// and pure packet-byte query streams stay byte-for-byte untouched.
	MinVar expr.VarID
	// Obs receives solver.memo_hits / solver.memo_misses.
	Obs *obs.Recorder

	unsat map[string]bool
}

// NewMemo returns an empty memo with the given participation threshold.
func NewMemo(minVar expr.VarID, rec *obs.Recorder) *Memo {
	return &Memo{MinVar: minVar, Obs: rec, unsat: map[string]bool{}}
}

// Len reports how many Unsat verdicts are cached.
func (m *Memo) Len() int { return len(m.unsat) }

// lookup consults the Unsat cache. ok=false means the query is not
// memoizable (no qualifying variable, oversized key, or trivially
// decided forms the solver handles for free). When ok, hit reports a
// cached refutation; on a miss the caller may store the key on a
// searched Unsat.
func (m *Memo) lookup(constraints []*expr.Expr) (key string, hit, ok bool) {
	key, ok = m.canonicalKey(constraints)
	if !ok {
		return "", false, false
	}
	if m.unsat[key] {
		m.count("solver.memo_hits")
		return key, true, true
	}
	m.count("solver.memo_misses")
	return key, false, true
}

// store records an Unsat verdict under a key lookup returned.
func (m *Memo) store(key string) { m.unsat[key] = true }

func (m *Memo) count(name string) {
	if m.Obs != nil {
		m.Obs.Counter(name).Inc()
	}
}

// canonicalKey renders the constraint set in a normal form invariant
// under constraint order and variable naming:
//
//  1. each constraint is folded to its truth form and dropped when
//     interval analysis proves it a tautology (it cannot affect the
//     verdict);
//  2. surviving constraints are sorted by a shape string that renames
//     variables per-constraint by first occurrence (order-insensitive);
//  3. the whole set is re-serialized with one dense global renaming in
//     sorted traversal order.
func (m *Memo) canonicalKey(constraints []*expr.Expr) (string, bool) {
	// Participation first: a query none of whose variables reaches
	// MinVar can never qualify below, whatever else happens to it, so it
	// is turned away before anything is serialized. (The tree NFs pose
	// only such queries.)
	if !m.mentionsMinVar(constraints) {
		return "", false
	}
	type entry struct {
		t     *expr.Expr
		shape string
	}
	var entries []entry
	qualifies := false
	size := 0
	for _, c := range constraints {
		t := expr.Truth(c)
		if b, ok := t.IsBool(); ok {
			if b {
				continue // tautology: drop
			}
			// Constant-false: the solver refutes it without search;
			// memoizing would only skip the (already free) newProblem
			// pass while perturbing query accounting.
			return "", false
		}
		if iv := expr.Range(t, nil); iv.Lo > 0 {
			continue // interval-proven tautology (never evaluates to 0)
		}
		if !qualifies {
			for _, v := range t.VarList() {
				if v >= m.MinVar {
					qualifies = true
					break
				}
			}
		}
		sh := serializeExpr(t, localRenaming(t))
		size += len(sh)
		if size > memoMaxKey {
			return "", false
		}
		entries = append(entries, entry{t: t, shape: sh})
	}
	if !qualifies || len(entries) == 0 {
		return "", false
	}
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].shape < entries[j].shape })
	global := map[expr.VarID]int{}
	var b []byte
	for i, e := range entries {
		if i > 0 {
			b = append(b, '|')
		}
		b = serialize(b, e.t, func(v expr.VarID) int {
			id, ok := global[v]
			if !ok {
				id = len(global)
				global[v] = id
			}
			return id
		})
		if len(b) > memoMaxKey {
			return "", false
		}
	}
	return string(b), true
}

// mentionsMinVar reports whether any constraint mentions a variable
// >= MinVar (VarList is ascending, so its last element decides).
func (m *Memo) mentionsMinVar(constraints []*expr.Expr) bool {
	for _, c := range constraints {
		if vs := c.VarList(); len(vs) > 0 && vs[len(vs)-1] >= m.MinVar {
			return true
		}
	}
	return false
}

// localRenaming maps each variable of t to its first-occurrence index.
func localRenaming(t *expr.Expr) func(expr.VarID) int {
	local := map[expr.VarID]int{}
	var walk func(e *expr.Expr)
	walk = func(e *expr.Expr) {
		if e == nil {
			return
		}
		if e.Op == expr.OpVar {
			if _, ok := local[e.Var]; !ok {
				local[e.Var] = len(local)
			}
			return
		}
		walk(e.A)
		walk(e.B)
		walk(e.C)
	}
	walk(t)
	return func(v expr.VarID) int { return local[v] }
}

func serializeExpr(t *expr.Expr, rename func(expr.VarID) int) string {
	return string(serialize(nil, t, rename))
}

// serialize renders an expression tree prefix-style with renamed
// variables: "op(a,b)", "c<hex>", "v<idx>".
func serialize(b []byte, e *expr.Expr, rename func(expr.VarID) int) []byte {
	switch e.Op {
	case expr.OpConst:
		b = append(b, 'c')
		return strconv.AppendUint(b, e.Val, 16)
	case expr.OpVar:
		b = append(b, 'v')
		return strconv.AppendInt(b, int64(rename(e.Var)), 10)
	default:
		b = append(b, byte('0'+e.Op))
		b = append(b, '(')
		b = serialize(b, e.A, rename)
		if e.B != nil {
			b = append(b, ',')
			b = serialize(b, e.B, rename)
		}
		if e.C != nil {
			b = append(b, ',')
			b = serialize(b, e.C, rename)
		}
		return append(b, ')')
	}
}

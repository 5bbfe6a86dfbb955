package expr

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// The four ref* functions are the Hacker's Delight loops as this package
// ran them before the kernels learnt to skip positions that cannot fire:
// one mask bit per iteration, from the operands' top bit down. They are
// the oracle FuzzIntervalKernels holds the kernels to, bit for bit.

func refStart(v uint64) uint64 {
	if v == 0 {
		return 0
	}
	return uint64(1) << (63 - bits.LeadingZeros64(v))
}

func refMinOR(a, b, c, d uint64) uint64 {
	for m := refStart(b | d); m != 0; m >>= 1 {
		if ^a&c&m != 0 {
			if t := (a | m) &^ (m - 1); t <= b {
				a = t
				break
			}
		} else if a&^c&m != 0 {
			if t := (c | m) &^ (m - 1); t <= d {
				c = t
				break
			}
		}
	}
	return a | c
}

func refMaxOR(a, b, c, d uint64) uint64 {
	for m := refStart(b & d); m != 0; m >>= 1 {
		if b&d&m != 0 {
			if t := (b - m) | (m - 1); t >= a {
				b = t
				break
			}
			if t := (d - m) | (m - 1); t >= c {
				d = t
				break
			}
		}
	}
	return b | d
}

func refMinAND(a, b, c, d uint64) uint64 {
	for m := refStart(b | d); m != 0; m >>= 1 {
		if ^a&^c&m != 0 {
			if t := (a | m) &^ (m - 1); t <= b {
				a = t
				break
			}
			if t := (c | m) &^ (m - 1); t <= d {
				c = t
				break
			}
		}
	}
	return a & c
}

func refMaxAND(a, b, c, d uint64) uint64 {
	for m := refStart(b | d); m != 0; m >>= 1 {
		if b&^d&m != 0 {
			if t := (b &^ m) | (m - 1); t >= a {
				b = t
				break
			}
		} else if ^b&d&m != 0 {
			if t := (d &^ m) | (m - 1); t >= c {
				d = t
				break
			}
		}
	}
	return b & d
}

// checkKernels compares all four kernels with the reference loops on
// [a,b] x [c,d] (bounds are swapped into order first).
func checkKernels(t *testing.T, a, b, c, d uint64) {
	t.Helper()
	if a > b {
		a, b = b, a
	}
	if c > d {
		c, d = d, c
	}
	for _, k := range []struct {
		name     string
		got, ref func(a, b, c, d uint64) uint64
	}{
		{"minOR", minOR, refMinOR}, {"maxOR", maxOR, refMaxOR},
		{"minAND", minAND, refMinAND}, {"maxAND", maxAND, refMaxAND},
	} {
		if got, want := k.got(a, b, c, d), k.ref(a, b, c, d); got != want {
			t.Fatalf("%s([%#x,%#x],[%#x,%#x]) = %#x, reference loop gives %#x", k.name, a, b, c, d, got, want)
		}
	}
}

// FuzzIntervalKernels: the kernels equal the 64-step reference loops on
// arbitrary intervals, and on 8-bit operands they equal brute force over
// every pair of values (the bounds are tight, not merely sound).
func FuzzIntervalKernels(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0))
	f.Add(uint64(0x1ff), uint64(0x300), uint64(1), uint64(1)) // or-is-add would be tighter here; HD is not
	f.Add(uint64(8), uint64(12), uint64(5), uint64(5))
	f.Add(uint64(0x0a0b0c0d0e0f0000), uint64(0x0a0b0c0d0e0fffff), uint64(0), uint64(255))
	f.Add(^uint64(0), uint64(1)<<63, uint64(1)<<63-1, uint64(12345))
	f.Fuzz(func(t *testing.T, a, b, c, d uint64) {
		checkKernels(t, a, b, c, d)
		// Shifted copies reach the narrow and the byte-aligned shapes the
		// solver actually poses far more often than raw 64-bit draws do.
		checkKernels(t, a>>40, b>>40, c>>56, d>>56)
		checkKernels(t, a&^0xff, a|0xff, c>>56, d>>56)
		checkKernels(t, a, a, c, d)
		checkKernels(t, a, a, c, c)

		a8, b8, c8, d8 := a&0xff, b&0xff, c&0xff, d&0xff
		if a8 > b8 {
			a8, b8 = b8, a8
		}
		if c8 > d8 {
			c8, d8 = d8, c8
		}
		loOR, hiOR, loAND, hiAND := ^uint64(0), uint64(0), ^uint64(0), uint64(0)
		for x := a8; x <= b8; x++ {
			for y := c8; y <= d8; y++ {
				loOR, hiOR = min(loOR, x|y), max(hiOR, x|y)
				loAND, hiAND = min(loAND, x&y), max(hiAND, x&y)
			}
		}
		if got := [4]uint64{minOR(a8, b8, c8, d8), maxOR(a8, b8, c8, d8), minAND(a8, b8, c8, d8), maxAND(a8, b8, c8, d8)}; got != [4]uint64{loOR, hiOR, loAND, hiAND} {
			t.Fatalf("[%d,%d] x [%d,%d]: kernels give %v, brute force %v", a8, b8, c8, d8, got, [4]uint64{loOR, hiOR, loAND, hiAND})
		}
	})
}

// TestIntervalKernelsMatchReference runs the fuzz property over a seeded
// sample on every plain `go test`, biased toward the shapes symbex
// poses: byte-aligned concats, pinned operands, narrow windows.
func TestIntervalKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	draw := func() uint64 {
		v := rng.Uint64()
		switch rng.Intn(4) {
		case 0:
			v >>= uint(rng.Intn(64))
		case 1:
			v &= 0xff << uint(8*rng.Intn(8))
		case 2:
			v &^= uint64(1)<<uint(rng.Intn(64)) - 1
		}
		return v
	}
	for i := 0; i < 200000; i++ {
		a, c := draw(), draw()
		b, d := draw(), draw()
		switch rng.Intn(4) {
		case 0:
			b = a
		case 1:
			d = c
		case 2:
			b, d = a+uint64(rng.Intn(300)), c+uint64(rng.Intn(300))
		}
		checkKernels(t, a, b, c, d)
	}
}

var sinkU64 uint64

// BenchmarkMinOR is the kernel on the shape that dominated the tree-NF
// profile: a 64-bit key concat's pinned upper bytes or'ed with one free
// byte, and the same with two free bytes below a pinned prefix.
func BenchmarkMinOR(b *testing.B) {
	const prefix = 0x0a0b0c0d0e0f1000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkU64 += minOR(prefix, prefix, 0, 255)
		sinkU64 += minOR(prefix, prefix|0xff00, 0, 255)
	}
}

// BenchmarkRange walks expr.Range over ult(concat(b0..b7), K) with the
// upper six bytes pinned, the way the solver's interval check sees a
// 64-bit key comparison near the bottom of its search.
func BenchmarkRange(b *testing.B) {
	bs := make([]*Expr, 8)
	vals := map[VarID]uint64{}
	for i := range bs {
		bs[i] = Var(VarID(i))
		if i < 6 {
			vals[VarID(i)] = uint64(0x10 + i)
		}
	}
	e := Ult(ConcatBytes(bs...), Const(0x1011121314150000))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkU64 += Range(e, vals).Hi
	}
}

// rangeOps is every op rangeBin has a transfer function for.
var rangeOps = []Op{
	OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor, OpShl, OpLshr, OpUDiv, OpURem,
	OpEq, OpNe, OpUlt, OpUle,
}

// within returns the sub-interval of iv between the two points x and y
// select (each reduced into iv).
func within(iv Interval, x, y uint64) Interval {
	w := iv.Hi - iv.Lo + 1 // 0 when iv is Full
	if w != 0 {
		x, y = iv.Lo+x%w, iv.Lo+y%w
	}
	return Interval{min(x, y), max(x, y)}
}

func ordered(lo, hi uint64) Interval { return Interval{min(lo, hi), max(lo, hi)} }

func inside(small, big Interval) bool { return small.Lo >= big.Lo && small.Hi <= big.Hi }

// checkIsotone holds every transfer function to inclusion-isotonicity on
// [a0,a1] x [b0,b1] x [c0,c1] and sub-intervals of them the s* pairs
// pick: the result on the smaller operands lies inside the result on the
// larger ones. Block refutation in the solver rests on it: Range with a
// variable over a block of values contains Range with it pinned to any
// one of them. Where the smaller operands are all points, the value
// binConst computes lies inside too (soundness, the Eval-checked half).
func checkIsotone(t *testing.T, op uint8, a0, a1, b0, b1, c0, c1, sa0, sa1, sb0, sb1, sc0, sc1 uint64) {
	t.Helper()
	a, b, c := ordered(a0, a1), ordered(b0, b1), ordered(c0, c1)
	as, bs, cs := within(a, sa0, sa1), within(b, sb0, sb1), within(c, sc0, sc1)
	if int(op)%(len(rangeOps)+1) == len(rangeOps) {
		big, small := rangeIte(a, b, c), rangeIte(as, bs, cs)
		if !inside(small, big) {
			t.Fatalf("rangeIte(%v, %v, %v) = %v, but on %v, %v, %v it is %v", a, b, c, big, as, bs, cs, small)
		}
		return
	}
	o := rangeOps[int(op)%(len(rangeOps)+1)]
	big, small := rangeBin(o, a, b), rangeBin(o, as, bs)
	if !inside(small, big) {
		t.Fatalf("%v: %v x %v gives %v, but %v x %v gives %v", o, a, b, big, as, bs, small)
	}
	x, xok := as.Singleton()
	y, yok := bs.Singleton()
	if v := binConst(o, x, y); xok && yok && !big.Contains(v) {
		t.Fatalf("%v: %#x, %#x evaluates to %#x, outside %v x %v's %v", o, x, y, v, a, b, big)
	}
}

// FuzzRangeIsotone: shrinking the operands of Range's transfer functions
// never grows the result (checkIsotone).
func FuzzRangeIsotone(f *testing.F) {
	const top = ^uint64(0)
	seed := func(op Op, a0, a1, b0, b1, sa0, sa1, sb0, sb1 uint64) {
		f.Add(uint8(slices.Index(rangeOps, op)), a0, a1, b0, b1, uint64(0), uint64(0), sa0, sa1, sb0, sb1, uint64(0), uint64(0))
	}
	seed(OpAdd, top-10, top, 0, 20, 0, 3, 0, 5)   // wraps; the smaller sum does not
	seed(OpSub, 5, 300, 0, 10, 200, 295, 0, 0)    // borrows; the smaller difference does not
	seed(OpMul, 1, 1<<32+1, 1, 1<<32, 0, 3, 0, 3) // overflows; the smaller product does not
	seed(OpMul, 0, 255, 0, 0, 0, 255, 0, 0)       // a zero factor
	seed(OpShl, 1, 1<<62, 0, 3, 0, 1<<40, 2, 2)   // shift amount a point only in the smaller
	seed(OpShl, 1, 255, 64, 64, 0, 254, 0, 0)     // shift past the width
	seed(OpLshr, 0, top, 0, 70, 0, 5, 63, 63)     // ditto, right
	seed(OpUDiv, 10, 1000, 0, 5, 0, 990, 0, 0)    // divisor interval holds zero
	seed(OpURem, 10, 1000, 0, 5, 0, 990, 0, 0)    // ditto
	seed(OpURem, 0, 1000, 7, 7, 0, 5, 0, 0)       // a point divisor above the smaller dividend
	seed(OpEq, 0, 255, 100, 100, 100, 100, 0, 0)  // a point pair
	seed(OpUle, 0, 255, 0, 255, 10, 10, 9, 9)     // decided only on the smaller
	seed(OpAnd, 0x0a0b0c0d0e0f0000, 0x0a0b0c0d0e0fffff, 0, 255, 5, 9, 3, 3)
	f.Add(uint8(len(rangeOps)), uint64(0), uint64(1), uint64(3), uint64(9), uint64(20), uint64(40), // Ite, condition a point only in the smaller
		uint64(1), uint64(1), uint64(0), uint64(0), uint64(0), uint64(0))
	f.Fuzz(func(t *testing.T, op uint8, a0, a1, b0, b1, c0, c1, sa0, sa1, sb0, sb1, sc0, sc1 uint64) {
		checkIsotone(t, op, a0, a1, b0, b1, c0, c1, sa0, sa1, sb0, sb1, sc0, sc1)
		// Narrow copies reach the byte and point shapes the solver poses
		// far more often than raw 64-bit draws do.
		checkIsotone(t, op, a0>>56, a1>>56, b0>>58, b1>>58, c0&1, c1&1, sa0, sa1, sb0, sb1, sc0, sc1)
		checkIsotone(t, op, a0&^0xff, a0|0xff, b0&0xff, b1&0xff, c0>>63, c1>>63, sa0, sa0, sb0, sb0, sc0, sc0)
	})
}

// TestRangeIsotone runs the fuzz property over a seeded sample on every
// plain `go test`.
func TestRangeIsotone(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	draw := func() uint64 {
		v := rng.Uint64()
		switch rng.Intn(4) {
		case 0:
			v >>= uint(rng.Intn(64))
		case 1:
			v &= 0xff
		case 2:
			v = uint64(rng.Intn(70))
		}
		return v
	}
	for i := 0; i < 200000; i++ {
		var v [12]uint64
		for j := range v {
			v[j] = draw()
		}
		checkIsotone(t, uint8(rng.Intn(256)), v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7], v[8], v[9], v[10], v[11])
	}
}

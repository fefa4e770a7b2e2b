package ec

import (
	"math/big"
	"math/bits"

	"medsec/internal/gf2m"
	"medsec/internal/modn"
)

// This file implements the Koblitz-curve machinery that motivates the
// paper's curve choice ("Our ECC chip uses a Koblitz curve [1] defined
// over F_2^163"): the Frobenius endomorphism τ(x, y) = (x², y²) is
// almost free in hardware (two passes through the squarer), and
// τ-adic non-adjacent-form (TNAF) expansions replace every point
// doubling with a Frobenius application. The co-processor itself uses
// the Montgomery ladder for its side-channel properties; the τNAF
// route of ScalarMulVartime is the simulator's exact, variable-time
// path for the same products (vartime.go).

// IsKoblitz reports whether the curve is a Koblitz (anomalous binary)
// curve, i.e. has a, b ∈ {0, 1} with b = 1, so that the Frobenius map
// is a curve endomorphism.
func (c *Curve) IsKoblitz() bool {
	return c.B.IsOne() && (c.A.IsZero() || c.A.IsOne())
}

// Frobenius applies τ(x, y) = (x², y²). On a Koblitz curve this is an
// endomorphism satisfying τ² + 2 = µτ with µ = (-1)^(1-a).
func (c *Curve) Frobenius(p Point) Point {
	if p.Inf {
		return p
	}
	return Point{X: gf2m.Sqr(p.X), Y: gf2m.Sqr(p.Y)}
}

// mu returns the trace µ of the Frobenius: +1 for a = 1 (K-163),
// -1 for a = 0.
func (c *Curve) mu() int {
	if c.A.IsOne() {
		return 1
	}
	return -1
}

// zint is a signed 192-bit integer in two's complement, little-endian
// words. It carries the Z[τ] coordinates of the recoder and the
// partial reduction without math/big: every value those steps produce
// stays far below 2^191 in magnitude, and add, sub and mul wrap mod
// 2^192 exactly like the hardware words do.
type zint [3]uint64

func zFromInt(v int64) zint {
	s := uint64(v >> 63)
	return zint{uint64(v), s, s}
}

func (a zint) isZero() bool { return a[0]|a[1]|a[2] == 0 }

func zAdd(a, b zint) zint {
	var r zint
	var c uint64
	r[0], c = bits.Add64(a[0], b[0], 0)
	r[1], c = bits.Add64(a[1], b[1], c)
	r[2], _ = bits.Add64(a[2], b[2], c)
	return r
}

func zSub(a, b zint) zint {
	var r zint
	var c uint64
	r[0], c = bits.Sub64(a[0], b[0], 0)
	r[1], c = bits.Sub64(a[1], b[1], c)
	r[2], _ = bits.Sub64(a[2], b[2], c)
	return r
}

func zNeg(a zint) zint { return zSub(zint{}, a) }

// zMul returns a·b mod 2^192, which for two's-complement operands is
// the signed product whenever that product fits in 192 bits.
func zMul(a, b zint) zint {
	h00, l00 := bits.Mul64(a[0], b[0])
	h01, l01 := bits.Mul64(a[0], b[1])
	h10, l10 := bits.Mul64(a[1], b[0])
	var r zint
	var c1, c2 uint64
	r[0] = l00
	r[1], c1 = bits.Add64(h00, l01, 0)
	r[1], c2 = bits.Add64(r[1], l10, 0)
	r[2] = c1 + c2 + h01 + h10 + a[0]*b[2] + a[1]*b[1] + a[2]*b[0]
	return r
}

// zSar1 is an arithmetic shift right by one (floor division by two).
func zSar1(a zint) zint {
	return zint{a[0]>>1 | a[1]<<63, a[1]>>1 | a[2]<<63, uint64(int64(a[2]) >> 1)}
}

// tnafRecode writes the τ-adic NAF of r0 + r1·τ into dst, least
// significant digit first, and returns its length (Solinas' algorithm;
// Hankerson et al. Alg. 3.61): digits u_i ∈ {0, ±1} with no two
// adjacent nonzeros and r0 + r1·τ = Σ u_i τ^i in Z[τ]. It panics if
// dst is too short, which the callers' length bounds rule out.
func tnafRecode(r0, r1 zint, mu int, dst []int8) int {
	n := 0
	for !r0.isZero() || !r1.isZero() {
		var u int8
		if r0[0]&1 == 1 {
			// u = 2 - ((r0 - 2·r1) mod 4), giving ±1.
			u = 2 - int8((r0[0]-2*r1[0])&3)
			r0 = zSub(r0, zFromInt(int64(u)))
		}
		dst[n] = u
		n++
		// (r0, r1) <- (r1 + µ·r0/2, -r0/2); r0 is even here.
		half := zSar1(r0)
		if mu == 1 {
			r0 = zAdd(r1, half)
		} else {
			r0 = zSub(r1, half)
		}
		r1 = zNeg(half)
	}
	return n
}

// tnafMaxScalarBits bounds the scalars TNAF accepts: the recoder's
// coordinates stay within about 1.2·k, so 189-bit scalars keep them
// inside zint's 191-bit magnitude.
const tnafMaxScalarBits = 189

// TNAF computes the τ-adic non-adjacent form of k for the given
// Frobenius trace µ ∈ {+1, -1} (Solinas' algorithm): digits
// u_i ∈ {0, ±1} with no two adjacent nonzeros, such that
// k = Σ u_i · τ^i in Z[τ]. Without partial modular reduction the
// expansion of an n-bit scalar has roughly 2n digits; the scalar
// multiplication reduces k modulo δ first (tnafConst.recode) and
// walks about 163. k must be below 2^189.
func TNAF(k modn.Scalar, mu int) []int8 {
	if mu != 1 && mu != -1 {
		panic("ec: Frobenius trace must be ±1")
	}
	if k.BitLen() > tnafMaxScalarBits {
		panic("ec: TNAF scalar exceeds 189 bits")
	}
	dst := make([]int8, 2*k.BitLen()+8)
	n := tnafRecode(zint{k[0], k[1], k[2]}, zint{}, mu, dst)
	return dst[:n]
}

// TNAFIsValid checks the non-adjacency property (at most one of any
// two consecutive digits is nonzero).
func TNAFIsValid(digits []int8) bool {
	for i := 1; i < len(digits); i++ {
		if digits[i] != 0 && digits[i-1] != 0 {
			return false
		}
	}
	return true
}

// TNAFWeight returns the number of nonzero digits — the point-addition
// count of a TNAF scalar multiplication (compare to HW(k) additions
// plus bitlen(k) doublings for double-and-add).
func TNAFWeight(digits []int8) int {
	n := 0
	for _, d := range digits {
		if d != 0 {
			n++
		}
	}
	return n
}

// tnafMaxDigits bounds the τNAF of a scalar reduced modulo δ: Solinas'
// bound is m + a + 3 = 167 digits for K-163; the buffer leaves margin.
const tnafMaxDigits = 192

// tnafConst holds the per-curve constants of partial reduction modulo
// δ = (τ^m − 1)/(τ − 1) = d0 + d1·τ, whose norm is the subgroup order
// n. On the order-n subgroup δ acts as zero (τ^m is the identity on
// E(F_2^m) and τ − 1 is invertible there), so any ρ ≡ k (mod δ) gives
// ρP = kP; choosing ρ = k − qδ with q the rounded quotient k/δ makes ρ
// short, and its τNAF about m digits long instead of 2m.
type tnafConst struct {
	mu     int
	d0, d1 zint
	// k/δ = k·δ̄/n = λ0 + λ1·τ with δ̄ = s0 + s1·τ, s0 = d0 + µd1,
	// s1 = −d1. g[i] = round(|s_i|·2^256/n), so λ_i·2^64 is the top
	// three words of k·g[i], negated when s_i < 0.
	g    [2][3]uint64
	gneg [2]bool
}

// newTnafConst derives δ for a Koblitz curve with Frobenius trace µ
// from the Lucas sequence τ^m = U_m·τ − 2·U_{m−1}, and returns nil
// unless N(δ) equals the curve order (the cofactor-2 case the route
// relies on). It runs once per curve at package initialization, the
// only place the τNAF route touches math/big.
func newTnafConst(c *Curve) *tnafConst {
	mu := int64(c.mu())
	bmu := big.NewInt(mu)
	// U_0 = 0, U_1 = 1, U_{k+1} = µU_k − 2U_{k−1}.
	uPrev, u := big.NewInt(0), big.NewInt(1)
	for i := 1; i < gf2m.M; i++ {
		next := new(big.Int).Mul(bmu, u)
		next.Sub(next, new(big.Int).Lsh(uPrev, 1))
		uPrev, u = u, next
	}
	// τ^m − 1 = a0 + a1·τ.
	a0 := new(big.Int).Lsh(uPrev, 1)
	a0.Neg(a0).Sub(a0, big.NewInt(1))
	a1 := u
	// Divide by τ − 1: multiply by its conjugate (µ − 1) − τ and by
	// 1/N(τ − 1) = 1/(3 − µ). (x0 + x1τ)(y0 + y1τ) =
	// (x0y0 − 2x1y1) + (x0y1 + x1y0 + µx1y1)τ.
	b0, b1 := big.NewInt(mu-1), big.NewInt(-1)
	norm := big.NewInt(3 - mu)
	d0 := new(big.Int).Mul(a0, b0)
	d0.Sub(d0, new(big.Int).Lsh(new(big.Int).Mul(a1, b1), 1))
	d1 := new(big.Int).Mul(a0, b1)
	d1.Add(d1, new(big.Int).Mul(a1, b0))
	d1.Add(d1, new(big.Int).Mul(bmu, new(big.Int).Mul(a1, b1)))
	var rem big.Int
	if d0.QuoRem(d0, norm, &rem); rem.Sign() != 0 {
		return nil
	}
	if d1.QuoRem(d1, norm, &rem); rem.Sign() != 0 {
		return nil
	}
	// N(δ) = d0² + µd0d1 + 2d1² must be the subgroup order.
	n := scalarToBig(c.Order.N())
	nd := new(big.Int).Mul(d0, d0)
	nd.Add(nd, new(big.Int).Mul(bmu, new(big.Int).Mul(d0, d1)))
	nd.Add(nd, new(big.Int).Lsh(new(big.Int).Mul(d1, d1), 1))
	if nd.Cmp(n) != 0 {
		return nil
	}
	t := &tnafConst{mu: int(mu), d0: bigToZint(d0), d1: bigToZint(d1)}
	s0 := new(big.Int).Add(d0, new(big.Int).Mul(bmu, d1))
	s1 := new(big.Int).Neg(d1)
	for i, s := range []*big.Int{s0, s1} {
		t.gneg[i] = s.Sign() < 0
		g := new(big.Int).Abs(s)
		g.Lsh(g, 256)
		g.Add(g, new(big.Int).Rsh(n, 1))
		g.Quo(g, n)
		if g.BitLen() > 192 {
			return nil
		}
		t.g[i] = [3]uint64(bigToZint(g))
	}
	return t
}

func scalarToBig(k modn.Scalar) *big.Int {
	v := new(big.Int)
	for i := modn.Words - 1; i >= 0; i-- {
		v.Lsh(v, 64).Or(v, new(big.Int).SetUint64(k[i]))
	}
	return v
}

// bigToZint converts |v| < 2^191 to two's complement.
func bigToZint(v *big.Int) zint {
	a := new(big.Int).Abs(v)
	var z zint
	for i := range z {
		z[i] = new(big.Int).Rsh(a, uint(64*i)).Uint64()
	}
	if v.Sign() < 0 {
		z = zNeg(z)
	}
	return z
}

// lambda returns k·s_i/n as a rounded integer f and the remainder
// λ − f ∈ [−1/2, 1/2) in units of 2^−32.
func (t *tnafConst) lambda(k modn.Scalar, i int) (f zint, eta int64) {
	// Top three words of the 6-word product k·g (k < 2^163): λ·2^64.
	g := &t.g[i]
	var p [6]uint64
	for a := 0; a < 3; a++ {
		var carry uint64
		for b := 0; b < 3; b++ {
			hi, lo := bits.Mul64(k[a], g[b])
			var c uint64
			lo, c = bits.Add64(lo, p[a+b], 0)
			hi += c
			lo, c = bits.Add64(lo, carry, 0)
			hi += c
			p[a+b] = lo
			carry = hi
		}
		p[a+3] = carry
	}
	l := zint{p[3], p[4], p[5]}
	if t.gneg[i] {
		l = zNeg(l)
	}
	// f = floor(λ + 1/2); η·2^64 = ((λ + 1/2)·2^64 mod 2^64) − 2^63.
	l = zAdd(l, zint{1 << 63})
	f = zint{l[1], l[2], uint64(int64(l[2]) >> 63)}
	eta = int64(l[0]-1<<63) >> 32
	return f, eta
}

// recode writes the τNAF of ρ = k partmod δ into dst and returns its
// length. The quotient q = q0 + q1·τ is Solinas' rounding of k/δ
// (Hankerson et al. Alg. 3.62 and 3.63); ρ = k − q·δ. Any q keeps ρ
// congruent to k, so the rounding decides only the expansion length.
// k must be below n.
func (t *tnafConst) recode(k modn.Scalar, dst []int8) int {
	f0, e0 := t.lambda(k, 0)
	f1, e1 := t.lambda(k, 1)
	const one = int64(1) << 32
	mu := int64(t.mu)
	var h0, h1 int64
	eta := 2*e0 + mu*e1
	if eta >= one {
		if e0-3*mu*e1 < -one {
			h1 = mu
		} else {
			h0 = 1
		}
	} else if e0+4*mu*e1 >= 2*one {
		h1 = mu
	}
	if eta < -one {
		if e0-3*mu*e1 >= one {
			h1 = -mu
		} else {
			h0 = -1
		}
	} else if e0+4*mu*e1 < -2*one {
		h1 = -mu
	}
	q0 := zAdd(f0, zFromInt(h0))
	q1 := zAdd(f1, zFromInt(h1))
	// q·δ = (q0d0 − 2q1d1) + (q0d1 + q1d0 + µq1d1)·τ.
	q1d1 := zMul(q1, t.d1)
	r0 := zSub(zint{k[0], k[1], k[2]}, zSub(zMul(q0, t.d0), zAdd(q1d1, q1d1)))
	r1 := zAdd(zMul(q0, t.d1), zMul(q1, t.d0))
	if t.mu == 1 {
		r1 = zAdd(r1, q1d1)
	} else {
		r1 = zSub(r1, q1d1)
	}
	return tnafRecode(r0, zNeg(r1), t.mu, dst)
}

// frobenius applies τ to a López–Dahab point: (X², Y², Z²) represents
// (x², y²) because both coordinate maps are field automorphisms.
func frobenius(p ProjPoint) ProjPoint {
	return ProjPoint{X: gf2m.Sqr(p.X), Y: gf2m.Sqr(p.Y), Z: gf2m.Sqr(p.Z)}
}

// mulTNAF returns k·p for p in the order-n subgroup of a Koblitz curve
// and k < n: Horner evaluation of the reduced τNAF, Q <- τ(Q) ± p per
// digit, with projective Frobenius and mixed additions and no
// inversion. The multiplication tables of x, y and x+y are built once
// and serve both p and −p.
func (c *Curve) mulTNAF(t *tnafConst, k modn.Scalar, p Point) ProjPoint {
	var digits [tnafMaxDigits]int8
	n := t.recode(k, digits[:])
	var op mixedOperand
	op.set(p.X, p.Y)
	acc := projInfinity()
	for i := n - 1; i >= 0; i-- {
		if !acc.Z.IsZero() {
			acc = frobenius(acc)
		}
		switch digits[i] {
		case 1:
			acc = c.addMixed(acc, &op, false)
		case -1:
			acc = c.addMixed(acc, &op, true)
		}
	}
	return acc
}

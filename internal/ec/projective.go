package ec

import (
	"medsec/internal/gf2m"
)

// López–Dahab projective coordinates: P = (X : Y : Z) with x = X/Z and
// y = Y/Z². They make the full group law inversion-free (an inversion
// is ~171 MALU passes on this hardware, versus ~10 for a projective
// step), which is how the variable-time scalar multiplication
// (vartime.go) pays one Itoh–Tsujii inversion per product instead of
// one per addition. The mixed addition is the 8M+5S formula of EFD
// madd-2005-dl (Hankerson et al. Alg. 3.25); the doubling is derived
// from the affine law. Both are property-tested against the affine
// group law.

// ProjPoint is a point in LD projective coordinates. Z = 0 encodes the
// point at infinity.
type ProjPoint struct {
	X, Y, Z gf2m.Element
}

// projInfinity returns the canonical encoding (1 : 0 : 0) of O.
func projInfinity() ProjPoint { return ProjPoint{X: gf2m.One()} }

// ToProjective lifts an affine point.
func ToProjective(p Point) ProjPoint {
	if p.Inf {
		return projInfinity()
	}
	return ProjPoint{X: p.X, Y: p.Y, Z: gf2m.One()}
}

// ToAffine normalizes back (one inversion).
func (pp ProjPoint) ToAffine() Point {
	if pp.Z.IsZero() {
		return Infinity()
	}
	zi := gf2m.Inv(pp.Z)
	return Point{
		X: gf2m.Mul(pp.X, zi),
		Y: gf2m.Mul(pp.Y, gf2m.Sqr(zi)),
	}
}

// IsInfinity reports whether pp encodes O.
func (pp ProjPoint) IsInfinity() bool { return pp.Z.IsZero() }

// ProjDouble returns 2·P without inversions.
//
// With A = X² + Y, C = Z·X:
//
//	Z3 = C², X3 = A² + A·C + a·C², Y3 = Z²·X⁶ + (A + C)·C·X3.
func (c *Curve) ProjDouble(p ProjPoint) ProjPoint {
	if p.Z.IsZero() || p.X.IsZero() {
		// O, or the order-2 point (x = 0) whose double is O.
		return projInfinity()
	}
	x2 := gf2m.Sqr(p.X)
	a := gf2m.Add(x2, p.Y)
	cc := gf2m.Mul(p.Z, p.X)
	z3 := gf2m.Sqr(cc)
	// Lazy reduction: reduction mod f is GF(2)-linear, so the sums
	// below accumulate unreduced 6-word products and reduce once —
	// bit-identical to reducing per term (asserted by the package's
	// affine cross-tests), one reduce instead of three.
	xacc := gf2m.SqrNoReduce(a)
	gf2m.MulAcc(&xacc, a, cc)
	gf2m.MulAcc(&xacc, c.A, z3)
	x3 := gf2m.Reduce(xacc)
	x6 := gf2m.Mul(gf2m.Sqr(x2), x2)
	yacc := gf2m.MulNoReduce(gf2m.Sqr(p.Z), x6)
	gf2m.MulAcc(&yacc, gf2m.Mul(gf2m.Add(a, cc), cc), x3)
	y3 := gf2m.Reduce(yacc)
	return ProjPoint{X: x3, Y: y3, Z: z3}
}

// mixedOperand is an affine addend prepared for mixed additions: its
// coordinates and x+y. Since −q = (x, x+y), it serves q and −q alike.
type mixedOperand struct {
	x, y, xy gf2m.Element
}

func (m *mixedOperand) set(x, y gf2m.Element) {
	m.x, m.y, m.xy = x, y, gf2m.Add(x, y)
}

// aTimes returns a·e for the curve coefficient a, free for a ∈ {0, 1}.
func (c *Curve) aTimes(e gf2m.Element) gf2m.Element {
	switch {
	case c.A.IsZero():
		return gf2m.Zero()
	case c.A.IsOne():
		return e
	}
	return gf2m.Mul(c.A, e)
}

// addMixed returns P + q, or P − q when neg is set, for projective P
// and the prepared affine q. With (x2, y2) the addend:
//
//	A = Y1 + y2·Z1², B = X1 + x2·Z1, C = Z1·B, E = A·C
//	Z3 = C², X3 = A² + B²·(C + a·Z1²) + E
//	Y3 = (E + Z3)·(X3 + x2·Z3) + (x2 + y2)·Z3²
//
// 8 multiplications and 5 squarings (a ∈ {0, 1}); B = 0 routes to the
// doubling (P = q) or to O (P = −q).
func (c *Curve) addMixed(p ProjPoint, q *mixedOperand, neg bool) ProjPoint {
	y2, sum := q.y, q.xy
	if neg {
		y2, sum = q.xy, q.y
	}
	if p.Z.IsZero() {
		return ProjPoint{X: q.x, Y: y2, Z: gf2m.One()}
	}
	z2 := gf2m.Sqr(p.Z)
	a := gf2m.Add(p.Y, gf2m.Mul(y2, z2))
	b := gf2m.Add(p.X, gf2m.Mul(q.x, p.Z))
	if b.IsZero() {
		if a.IsZero() {
			return c.ProjDouble(p)
		}
		return projInfinity()
	}
	cc := gf2m.Mul(p.Z, b)
	z3 := gf2m.Sqr(cc)
	e := gf2m.Mul(a, cc)
	// Lazy reduction (see ProjDouble): one reduce per sum. E enters
	// reduced, which the linearity of reduction also allows.
	xacc := gf2m.SqrNoReduce(a)
	gf2m.MulAcc(&xacc, gf2m.Sqr(b), gf2m.Add(cc, c.aTimes(z2)))
	xacc[0] ^= e[0]
	xacc[1] ^= e[1]
	xacc[2] ^= e[2]
	x3 := gf2m.Reduce(xacc)
	f := gf2m.Add(x3, gf2m.Mul(q.x, z3))
	yacc := gf2m.MulNoReduce(sum, gf2m.Sqr(z3))
	gf2m.MulAcc(&yacc, gf2m.Add(e, z3), f)
	y3 := gf2m.Reduce(yacc)
	return ProjPoint{X: x3, Y: y3, Z: z3}
}

// ProjAddMixed returns P + Q for projective P and affine Q without
// inversions (the common "mixed" case: precomputed affine table plus a
// projective accumulator), using the 8M+5S formula of addMixed.
func (c *Curve) ProjAddMixed(p ProjPoint, q Point) (ProjPoint, error) {
	if q.Inf {
		return p, nil
	}
	var op mixedOperand
	op.set(q.X, q.Y)
	return c.addMixed(p, &op, false), nil
}

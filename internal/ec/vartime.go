package ec

import (
	"sync"

	"medsec/internal/gf2m"
	"medsec/internal/modn"
)

// The variable-time scalar multiplication: exact, fast, and not
// constant time. It is the simulator's functional multiplier — the
// modelled chip's constant-time ladder is priced from its own
// measurement, and the points are the same — so it may branch on the
// scalar. The route depends only on the public curve and point:
//
//   - the generator of K-163 or B-163: a fixed-window table of affine
//     multiples j·2^(wi)·G, built once per curve per process; about
//     ⌈163/w⌉ mixed additions and no doublings;
//   - any other order-n point of K-163: the τNAF of k reduced modulo
//     δ, evaluated with projective Frobenius and mixed additions;
//   - everything else (B-163 variable base, off-curve or off-subgroup
//     points, k ≥ n, other curves): the ladder itself, so result and
//     error equal ScalarMulLadder / XOnlyScalarMul on every input.
//
// The fast routes first draw the ladder's (λ, µ) through rpcDraws and
// discard them: callers sharing opt.Rand with later protocol draws see
// the same stream whichever route ran.

// genWindow is the fixed-base window width. At w = 6 the table holds
// 28 rows of 63 affine points (about 85 KB per curve) and k·G costs at
// most 28 mixed additions.
const genWindow = 6

const (
	genRowLen = 1<<genWindow - 1
	genRows   = (gf2m.M + genWindow - 1) / genWindow
)

// affineXY is a finite affine point, the table entry type.
type affineXY struct{ x, y gf2m.Element }

// fastCurve holds a known curve's parameters and its precomputation:
// the τNAF constants (Koblitz curves only) and the lazily built
// generator table.
type fastCurve struct {
	a, b, gx, gy gf2m.Element
	n            modn.Scalar
	tnaf         *tnafConst

	genOnce sync.Once
	gen     []affineXY // genRows × genRowLen, row i holds j·2^(wi)·G
}

// fastCurves are the curves with fast routes, matched by parameters:
// K163() and B163() return a fresh *Curve on every call.
var fastCurves = []*fastCurve{newFastCurve(K163()), newFastCurve(B163())}

func newFastCurve(c *Curve) *fastCurve {
	f := &fastCurve{a: c.A, b: c.B, gx: c.Gx, gy: c.Gy, n: c.Order.N()}
	if c.IsKoblitz() && c.Cofactor == 2 {
		f.tnaf = newTnafConst(c)
	}
	return f
}

func lookupFast(c *Curve) *fastCurve {
	if c.Cofactor != 2 {
		return nil
	}
	for _, f := range fastCurves {
		if f.a == c.A && f.b == c.B && f.gx == c.Gx && f.gy == c.Gy && f.n == c.Order.N() {
			return f
		}
	}
	return nil
}

// generatorTable returns the curve's fixed-base table, building it on
// first use: each row is accumulated projectively from its base
// 2^(wi)·G and normalized with one batch inversion.
func (f *fastCurve) generatorTable(c *Curve) []affineXY {
	f.genOnce.Do(func() {
		tab := make([]affineXY, genRows*genRowLen)
		row := make([]ProjPoint, genRowLen+1) // j·B for j = 1..2^w
		base := affineXY{c.Gx, c.Gy}
		var op mixedOperand
		for i := 0; i < genRows; i++ {
			op.set(base.x, base.y)
			row[0] = ProjPoint{X: base.x, Y: base.y, Z: gf2m.One()}
			for j := 1; j < len(row); j++ {
				row[j] = c.addMixed(row[j-1], &op, false)
			}
			base = batchNormalize(row, tab[i*genRowLen:(i+1)*genRowLen])
		}
		f.gen = tab
	})
	return f.gen
}

// batchNormalize converts row[:len(out)] to affine into out and
// returns the affine form of the last element, with one inversion for
// the whole row (Montgomery's trick). Every Z must be nonzero, which
// holds for the multiples j·2^(wi)·G, 1 ≤ j ≤ 2^w, of a prime-order G.
func batchNormalize(row []ProjPoint, out []affineXY) affineXY {
	prefix := make([]gf2m.Element, len(row))
	acc := gf2m.One()
	for j, p := range row {
		prefix[j] = acc
		acc = gf2m.Mul(acc, p.Z)
	}
	inv := gf2m.Inv(acc)
	var last affineXY
	for j := len(row) - 1; j >= 0; j-- {
		zi := gf2m.Mul(inv, prefix[j])
		inv = gf2m.Mul(inv, row[j].Z)
		a := affineXY{gf2m.Mul(row[j].X, zi), gf2m.Mul(row[j].Y, gf2m.Sqr(zi))}
		if j < len(out) {
			out[j] = a
		} else {
			last = a
		}
	}
	return last
}

// mulGenerator returns k·G from the fixed-window table.
func (c *Curve) mulGenerator(tab []affineXY, k modn.Scalar) ProjPoint {
	acc := projInfinity()
	var op mixedOperand
	for i := 0; i < genRows; i++ {
		pos := uint(i * genWindow)
		w := k[pos>>6] >> (pos & 63)
		if pos&63 > 64-genWindow {
			w |= k[pos>>6+1] << (64 - pos&63)
		}
		if d := w & genRowLen; d != 0 {
			e := &tab[i*genRowLen+int(d)-1]
			op.set(e.x, e.y)
			acc = c.addMixed(acc, &op, false)
		}
	}
	return acc
}

// vartime returns k·p through a fast route, or ok = false when the
// input belongs to the ladder. On a fast route it first consumes the
// ladder's randomization draws.
func (c *Curve) vartime(k modn.Scalar, p Point, opt LadderOptions) (ProjPoint, bool) {
	f := lookupFast(c)
	if f == nil || p.Inf || k.Cmp(f.n) >= 0 {
		return ProjPoint{}, false
	}
	if p.X == f.gx && p.Y == f.gy {
		tab := f.generatorTable(c)
		rpcDraws(opt)
		return c.mulGenerator(tab, k), true
	}
	// Seroussi's subgroup criterion (see Validate): on the curve,
	// x ≠ 0 and Tr(x) = Tr(a).
	if f.tnaf == nil || p.X.IsZero() || !c.OnCurve(p) || gf2m.Trace(p.X) != gf2m.Trace(c.A) {
		return ProjPoint{}, false
	}
	rpcDraws(opt)
	return c.mulTNAF(f.tnaf, k, p), true
}

// ScalarMulVartime returns k·P, equal in result and error to
// ScalarMulLadder(k, p, opt) on every input and leaving opt.Rand at
// the same position, through the fastest exact route the public curve
// and point allow. It is not constant time: a simulator and reader
// path, never a model of the tag.
func (c *Curve) ScalarMulVartime(k modn.Scalar, p Point, opt LadderOptions) (Point, error) {
	q, ok := c.vartime(k, p, opt)
	if !ok {
		return c.ScalarMulLadder(k, p, opt)
	}
	return q.ToAffine(), nil
}

// XOnlyScalarMulVartime returns the affine x-coordinate of k·P and
// ok = false when k·P is O, equal to XOnlyScalarMul(k, p.X, opt) on
// every input and leaving opt.Rand at the same position. It takes the
// whole point because the fast routes need y; the ladder route uses
// only p.X, as XOnlyScalarMul does.
func (c *Curve) XOnlyScalarMulVartime(k modn.Scalar, p Point, opt LadderOptions) (gf2m.Element, bool) {
	q, ok := c.vartime(k, p, opt)
	if !ok {
		return c.XOnlyScalarMul(k, p.X, opt)
	}
	if q.Z.IsZero() {
		return gf2m.Zero(), false
	}
	return gf2m.Div(q.X, q.Z), true
}

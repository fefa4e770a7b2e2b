package ec

import (
	"testing"

	"medsec/internal/gf2m"
	"medsec/internal/modn"
)

// FuzzDecompress: arbitrary bytes must never panic, and anything the
// decoder accepts must be a point on the curve that re-compresses to
// the same encoding — the attack surface of every received protocol
// message.
func FuzzDecompress(f *testing.F) {
	c := K163()
	if enc, err := c.Compress(c.Generator()); err == nil {
		f.Add(enc)
		bad := append([]byte{}, enc...)
		bad[0] = 0x04
		f.Add(bad)
	}
	f.Add(make([]byte, 22))
	f.Add([]byte{0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := c.Decompress(data)
		if err != nil {
			return
		}
		if !c.OnCurve(p) {
			t.Fatal("decoder accepted an off-curve point")
		}
		enc, err := c.Compress(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(enc) != len(data) {
			t.Fatal("length changed across round trip")
		}
		for i := range enc {
			if enc[i] != data[i] {
				t.Fatal("re-compression differs from accepted input")
			}
		}
	})
}

// FuzzScalarMulVartime: for an arbitrary scalar (reduced modulo n
// when reduce is set, so the fast routes see most inputs) and an
// arbitrary x on either curve — lifted to a curve point with SolveY
// when lift is set and x lifts, left off the curve otherwise — the
// variable-time multiplication must equal the ladder in point, error,
// x-coordinate, ok flag and randomness consumed.
func FuzzScalarMulVartime(f *testing.F) {
	curves := curvesUnderTest()
	k163 := curves[0]
	g := k163.Generator()
	n := k163.Order.N()
	f.Add(false, n[0], n[1], n[2], n[3], false, g.X[0], g.X[1], g.X[2], true, true)
	f.Add(false, uint64(1), uint64(0), uint64(0), uint64(0), false, g.X[0], g.X[1], g.X[2], true, false)
	f.Add(true, n[0]-1, n[1], n[2], uint64(0), false, uint64(12345), uint64(0), uint64(0), true, false)
	f.Add(false, ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), true, uint64(99), uint64(7), uint64(3), true, false)
	f.Add(true, uint64(0), uint64(0), uint64(1)<<40, uint64(0), false, uint64(0), uint64(0), uint64(0), false, false)
	f.Fuzz(func(t *testing.T, b163 bool, k0, k1, k2, k3 uint64, reduce bool, x0, x1, x2 uint64, lift, flip bool) {
		c := k163
		if b163 {
			c = curves[1]
		}
		k := modn.Scalar{k0, k1, k2, k3}
		if reduce {
			k = c.Order.Reduce(k)
		}
		x := gf2m.FromWords(x0, x1, x2)
		p := Point{X: x, Y: gf2m.FromWords(k1, k0, x0)}
		if y, ok := c.SolveY(x); ok && lift {
			p.Y = y
			if flip {
				p = c.Neg(p)
			}
		}
		checkSameAsLadder(t, c, k, p)
	})
}

package ec

import (
	"math/rand"
	"testing"
	"testing/quick"

	"medsec/internal/gf2m"
	"medsec/internal/modn"
)

func TestProjectiveRoundTrip(t *testing.T) {
	c := K163()
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		p := c.RandomPoint(r.Uint64)
		if got := ToProjective(p).ToAffine(); !got.Equal(p) {
			t.Fatal("projective lift/normalize not a round trip")
		}
	}
	if !ToProjective(Infinity()).ToAffine().Inf {
		t.Fatal("O round trip failed")
	}
	if !ToProjective(Infinity()).IsInfinity() {
		t.Fatal("IsInfinity broken")
	}
}

func TestProjDoubleMatchesAffine(t *testing.T) {
	c := K163()
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 30; i++ {
		p := c.RandomPoint(r.Uint64)
		// Random projective representative: scale by lambda.
		lam := gf2m.FromWords(r.Uint64(), r.Uint64(), r.Uint64())
		if lam.IsZero() {
			lam = gf2m.One()
		}
		pp := ProjPoint{
			X: gf2m.Mul(p.X, lam),
			Y: gf2m.Mul(p.Y, gf2m.Sqr(lam)),
			Z: lam,
		}
		got := c.ProjDouble(pp).ToAffine()
		want := c.Double(p)
		if !got.Equal(want) {
			t.Fatalf("projective double wrong for %v", p)
		}
	}
	// O and the order-2 point.
	if !c.ProjDouble(ToProjective(Infinity())).IsInfinity() {
		t.Fatal("2*O != O")
	}
	yt, _ := c.SolveY(gf2m.Zero())
	t2 := ToProjective(Point{X: gf2m.Zero(), Y: yt})
	if !c.ProjDouble(t2).IsInfinity() {
		t.Fatal("order-2 point does not double to O")
	}
}

func TestProjAddMixedMatchesAffine(t *testing.T) {
	c := K163()
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 30; i++ {
		p := c.RandomPoint(r.Uint64)
		q := c.RandomPoint(r.Uint64)
		lam := gf2m.FromUint64(r.Uint64() | 1)
		pp := ProjPoint{
			X: gf2m.Mul(p.X, lam),
			Y: gf2m.Mul(p.Y, gf2m.Sqr(lam)),
			Z: lam,
		}
		got, err := c.ProjAddMixed(pp, q)
		if err != nil {
			t.Fatal(err)
		}
		want := c.Add(p, q)
		if !got.ToAffine().Equal(want) {
			t.Fatalf("projective mixed add wrong")
		}
	}
	// Exceptional cases: P + P, P + (-P), P + O, O + Q.
	p := c.RandomPoint(r.Uint64)
	pp := ToProjective(p)
	same, err := c.ProjAddMixed(pp, p)
	if err != nil {
		t.Fatal(err)
	}
	if !same.ToAffine().Equal(c.Double(p)) {
		t.Fatal("P+P did not route to doubling")
	}
	inv, err := c.ProjAddMixed(pp, c.Neg(p))
	if err != nil {
		t.Fatal(err)
	}
	if !inv.IsInfinity() {
		t.Fatal("P + (-P) != O")
	}
	idq, err := c.ProjAddMixed(pp, Infinity())
	if err != nil {
		t.Fatal(err)
	}
	if !idq.ToAffine().Equal(p) {
		t.Fatal("P + O != P")
	}
	fromO, err := c.ProjAddMixed(ToProjective(Infinity()), p)
	if err != nil {
		t.Fatal(err)
	}
	if !fromO.ToAffine().Equal(p) {
		t.Fatal("O + Q != Q")
	}
}

func TestQuickProjectiveRepresentativeInvariance(t *testing.T) {
	c := K163()
	g := c.Generator()
	f := func(l0 uint64, k uint16) bool {
		lam := gf2m.FromUint64(l0 | 1)
		pp := ProjPoint{
			X: gf2m.Mul(g.X, lam),
			Y: gf2m.Mul(g.Y, gf2m.Sqr(lam)),
			Z: lam,
		}
		d1 := c.ProjDouble(pp).ToAffine()
		d2 := c.Double(g)
		if !d1.Equal(d2) {
			return false
		}
		s, err := c.ScalarMulVartime(modn.FromUint64(uint64(k)), g, LadderOptions{})
		if err != nil {
			return false
		}
		return s.Equal(c.ScalarMulDoubleAndAdd(modn.FromUint64(uint64(k)), g))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkScalarMulFixedBase measures the generator route of
// ScalarMulVartime (fixed-window table), RPC draws included.
func BenchmarkScalarMulFixedBase(b *testing.B) {
	c := K163()
	r := rand.New(rand.NewSource(1))
	k := c.Order.RandNonZero(r.Uint64)
	g := c.Generator()
	opt := LadderOptions{Rand: r.Uint64}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ScalarMulVartime(k, g, opt); err != nil {
			b.Fatal(err)
		}
	}
}

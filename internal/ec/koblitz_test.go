package ec

import (
	"math/big"
	"math/rand"
	"testing"

	"medsec/internal/modn"
)

func TestIsKoblitz(t *testing.T) {
	if !K163().IsKoblitz() {
		t.Fatal("K-163 not recognized as Koblitz")
	}
	if B163().IsKoblitz() {
		t.Fatal("B-163 wrongly recognized as Koblitz")
	}
}

func TestFrobeniusIsEndomorphism(t *testing.T) {
	c := K163()
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		p := c.RandomPoint(r.Uint64)
		tp := c.Frobenius(p)
		if !c.OnCurve(tp) {
			t.Fatal("Frobenius left the curve")
		}
		// Characteristic equation: τ²P + 2P = µτP (µ = 1 for a = 1).
		t2p := c.Frobenius(tp)
		twoP := c.Double(p)
		lhs := c.Add(t2p, twoP)
		if !lhs.Equal(tp) {
			t.Fatalf("τ² + 2 != τ for point %v", p)
		}
		// Frobenius is additive: τ(P+Q) = τP + τQ.
		q := c.RandomPoint(r.Uint64)
		if !c.Frobenius(c.Add(p, q)).Equal(c.Add(tp, c.Frobenius(q))) {
			t.Fatal("Frobenius not additive")
		}
	}
	if !c.Frobenius(Infinity()).Inf {
		t.Fatal("τ(O) != O")
	}
}

func TestTNAFProperties(t *testing.T) {
	c := K163()
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 20; i++ {
		k := c.Order.RandNonZero(r.Uint64)
		digits := TNAF(k, 1)
		if !TNAFIsValid(digits) {
			t.Fatalf("TNAF has adjacent nonzero digits for k=%v", k)
		}
		for _, d := range digits {
			if d != 0 && d != 1 && d != -1 {
				t.Fatalf("digit %d out of range", d)
			}
		}
		// Expansion length ~ 2*163 for a full-size scalar.
		if len(digits) > 2*170 {
			t.Fatalf("TNAF suspiciously long: %d digits", len(digits))
		}
		// Average density ~ 1/3 (non-adjacency); allow generous band.
		w := TNAFWeight(digits)
		if w < len(digits)/6 || w > len(digits)/2+1 {
			t.Fatalf("TNAF weight %d implausible for length %d", w, len(digits))
		}
	}
	// Small scalars, both traces.
	for _, mu := range []int{1, -1} {
		for k := uint64(1); k <= 16; k++ {
			if !TNAFIsValid(TNAF(modn.FromUint64(k), mu)) {
				t.Fatalf("invalid TNAF for k=%d mu=%d", k, mu)
			}
		}
	}
	if len(TNAF(modn.Zero(), 1)) != 0 {
		t.Fatal("TNAF(0) should be empty")
	}
}

func TestTNAFPanicsOnBadTrace(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("TNAF accepted mu=0")
		}
	}()
	TNAF(modn.One(), 0)
}

func TestScalarMulTNAFMatchesLadder(t *testing.T) {
	c := K163()
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 10; i++ {
		k := c.Order.RandNonZero(r.Uint64)
		p := c.RandomPoint(r.Uint64)
		want, err := c.ScalarMulLadder(k, p, LadderOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.ScalarMulVartime(k, p, LadderOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("TNAF scalar mult wrong for k=%v", k)
		}
	}
	// Small cases including k = 0, on the τNAF route directly (the
	// generator itself takes the fixed-base route).
	g := c.Generator()
	tc := lookupFast(c).tnaf
	for k := uint64(0); k <= 10; k++ {
		got := c.mulTNAF(tc, modn.FromUint64(k), g).ToAffine()
		if !got.Equal(c.ScalarMulDoubleAndAdd(modn.FromUint64(k), g)) {
			t.Fatalf("TNAF wrong for k=%d", k)
		}
	}
}

// tnafReference is Solinas' recoding in math/big, the independent
// oracle of the fixed-width recoder.
func tnafReference(k modn.Scalar, mu int) []int8 {
	r0 := new(big.Int)
	for i := modn.Words - 1; i >= 0; i-- {
		r0.Lsh(r0, 64)
		r0.Or(r0, new(big.Int).SetUint64(k[i]))
	}
	r1 := new(big.Int)
	var digits []int8
	tmp := new(big.Int)
	for r0.Sign() != 0 || r1.Sign() != 0 {
		var u int8
		if r0.Bit(0) == 1 {
			tmp.Lsh(r1, 1)
			tmp.Sub(r0, tmp)
			tmp.Mod(tmp, big.NewInt(4))
			u = int8(2 - tmp.Int64())
			r0.Sub(r0, big.NewInt(int64(u)))
		}
		digits = append(digits, u)
		half := new(big.Int).Rsh(r0, 1)
		next := new(big.Int)
		if mu == 1 {
			next.Add(r1, half)
		} else {
			next.Sub(r1, half)
		}
		r1 = new(big.Int).Neg(half)
		r0 = next
	}
	return digits
}

func TestTNAFMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	check := func(k modn.Scalar, mu int) {
		got, want := TNAF(k, mu), tnafReference(k, mu)
		if len(got) != len(want) {
			t.Fatalf("k=%v mu=%d: %d digits, reference %d", k, mu, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("k=%v mu=%d: digit %d is %d, reference %d", k, mu, i, got[i], want[i])
			}
		}
	}
	for _, mu := range []int{1, -1} {
		for k := uint64(0); k < 64; k++ {
			check(modn.FromUint64(k), mu)
		}
		for i := 0; i < 50; i++ {
			k := modn.Scalar{r.Uint64(), r.Uint64(), r.Uint64() >> 3}
			check(k, mu)
		}
		check(modn.Scalar{^uint64(0), ^uint64(0), 1<<61 - 1}, mu) // 2^189 − 1
	}
}

// TestReducedTNAFLength pins the point of partial reduction: the τNAF
// of k partmod δ has about m digits, a third of them nonzero, against
// ~2·163 digits unreduced. Solinas' rounding keeps N(ρ) < 4n/7, and a
// τNAF is at most log2 N(ρ) + 3 digits long, so no expansion exceeds
// 164 digits; a rounding that misses the nearest lattice point shows
// up as longer expansions.
func TestReducedTNAFLength(t *testing.T) {
	c := K163()
	tc := lookupFast(c).tnaf
	r := rand.New(rand.NewSource(6))
	var digits [tnafMaxDigits]int8
	total, weight := 0, 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		k := c.Order.Rand(r.Uint64)
		n := tc.recode(k, digits[:])
		if n > 164 {
			t.Fatalf("k=%v: reduced τNAF has %d digits, bound 164", k, n)
		}
		if !TNAFIsValid(digits[:n]) {
			t.Fatal("reduced τNAF has adjacent nonzero digits")
		}
		total += n
		weight += TNAFWeight(digits[:n])
	}
	if mean := float64(total) / trials; mean < 159 || mean > 162 {
		t.Fatalf("mean reduced length %.1f digits, want about 161", mean)
	}
	if mean := float64(weight) / trials; mean < 53 || mean > 56 {
		t.Fatalf("mean reduced weight %.1f, want about 54.5", mean)
	}
	// The extreme scalars reduce too.
	for _, k := range []modn.Scalar{modn.Zero(), modn.One(), c.Order.Sub(modn.Zero(), modn.One())} {
		if n := tc.recode(k, digits[:]); n > 164 {
			t.Fatalf("k=%v: %d digits", k, n)
		}
	}
}

func TestTNAFAdditionCountBeatsDoubleAndAdd(t *testing.T) {
	// The Koblitz pay-off: ~len/3 additions and zero doublings versus
	// HW(k) additions plus bitlen doublings.
	c := K163()
	r := rand.New(rand.NewSource(4))
	var tnafAdds, daAdds, daDoubles int
	for i := 0; i < 20; i++ {
		k := c.Order.RandNonZero(r.Uint64)
		tnafAdds += TNAFWeight(TNAF(k, 1))
		d, a := DoubleAndAddOpCount(k)
		daDoubles += d
		daAdds += a
	}
	// TNAF on ~326 digits: ~109 adds; DA: ~81 adds + 162 doubles.
	if tnafAdds >= daAdds+daDoubles {
		t.Fatalf("TNAF total group ops (%d adds) not below DA (%d adds + %d doubles)",
			tnafAdds, daAdds, daDoubles)
	}
}

// BenchmarkScalarMulTNAF measures the τNAF route of ScalarMulVartime
// (K-163, a subgroup point other than G), RPC draws included.
func BenchmarkScalarMulTNAF(b *testing.B) {
	c := K163()
	r := rand.New(rand.NewSource(1))
	k := c.Order.RandNonZero(r.Uint64)
	p := c.RandomPoint(r.Uint64)
	opt := LadderOptions{Rand: r.Uint64}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ScalarMulVartime(k, p, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkXOnlyScalarMulTNAF is the x-only form of the same route.
func BenchmarkXOnlyScalarMulTNAF(b *testing.B) {
	c := K163()
	r := rand.New(rand.NewSource(1))
	k := c.Order.RandNonZero(r.Uint64)
	p := c.RandomPoint(r.Uint64)
	opt := LadderOptions{Rand: r.Uint64}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.XOnlyScalarMulVartime(k, p, opt); !ok {
			b.Fatal("unexpected infinity")
		}
	}
}

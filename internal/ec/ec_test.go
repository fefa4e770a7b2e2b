package ec

import (
	"math/rand"
	"testing"

	"medsec/internal/gf2m"
	"medsec/internal/modn"
)

func curvesUnderTest() []*Curve { return []*Curve{K163(), B163()} }

func TestDomainParameters(t *testing.T) {
	for _, c := range curvesUnderTest() {
		g := c.Generator()
		if !c.OnCurve(g) {
			t.Fatalf("%s: generator not on curve", c.Name)
		}
		if ng := c.ScalarMulDoubleAndAdd(c.Order.N(), g); !ng.Inf {
			t.Fatalf("%s: n*G != O; order constant wrong", c.Name)
		}
		nm1 := c.Order.Sub(modn.Zero(), modn.One()) // n-1 mod n
		if p := c.ScalarMulDoubleAndAdd(nm1, g); !p.Equal(c.Neg(g)) {
			t.Fatalf("%s: (n-1)*G != -G", c.Name)
		}
	}
}

func TestGroupLawBasics(t *testing.T) {
	c := K163()
	g := c.Generator()
	if !c.Add(g, Infinity()).Equal(g) || !c.Add(Infinity(), g).Equal(g) {
		t.Fatal("O is not the identity")
	}
	if !c.Add(g, c.Neg(g)).Inf {
		t.Fatal("P + (-P) != O")
	}
	if !c.OnCurve(c.Double(g)) || !c.OnCurve(c.Add(g, c.Double(g))) {
		t.Fatal("group law leaves the curve")
	}
	// 2P via Add(P,P) must match Double.
	if !c.Add(g, g).Equal(c.Double(g)) {
		t.Fatal("Add(P,P) != Double(P)")
	}
	if !c.Double(Infinity()).Inf {
		t.Fatal("2*O != O")
	}
	if !c.Neg(Infinity()).Inf {
		t.Fatal("-O != O")
	}
}

func TestGroupLawCommutativeAssociative(t *testing.T) {
	c := K163()
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		p := c.RandomPoint(r.Uint64)
		q := c.RandomPoint(r.Uint64)
		s := c.RandomPoint(r.Uint64)
		if !c.Add(p, q).Equal(c.Add(q, p)) {
			t.Fatal("addition not commutative")
		}
		if !c.Add(c.Add(p, q), s).Equal(c.Add(p, c.Add(q, s))) {
			t.Fatal("addition not associative")
		}
	}
}

func TestOrderTwoPoint(t *testing.T) {
	c := K163()
	yt, ok := c.SolveY(gf2m.Zero())
	if !ok {
		t.Fatal("no point with x=0 on K-163 (cofactor 2 demands one)")
	}
	tp := Point{X: gf2m.Zero(), Y: yt}
	if !c.OnCurve(tp) {
		t.Fatal("order-2 point not on curve")
	}
	if !c.Double(tp).Inf {
		t.Fatal("order-2 point does not double to O")
	}
}

func TestScalarMulSmallMultiples(t *testing.T) {
	c := K163()
	g := c.Generator()
	acc := Infinity()
	for k := uint64(0); k <= 20; k++ {
		got := c.ScalarMulDoubleAndAdd(modn.FromUint64(k), g)
		if !got.Equal(acc) {
			t.Fatalf("%d*G mismatch between repeated addition and double-and-add", k)
		}
		acc = c.Add(acc, g)
	}
}

func TestLadderMatchesDoubleAndAdd(t *testing.T) {
	for _, c := range curvesUnderTest() {
		r := rand.New(rand.NewSource(2))
		for i := 0; i < 15; i++ {
			k := c.Order.Rand(r.Uint64)
			p := c.RandomPoint(r.Uint64)
			want := c.ScalarMulDoubleAndAdd(k, p)
			got, err := c.ScalarMulLadder(k, p, LadderOptions{})
			if err != nil {
				t.Fatalf("%s: ladder error: %v", c.Name, err)
			}
			if !got.Equal(want) {
				t.Fatalf("%s: ladder disagrees with double-and-add for k=%v", c.Name, k)
			}
		}
	}
}

func TestLadderSmallScalarsAndEdges(t *testing.T) {
	c := K163()
	g := c.Generator()
	for k := uint64(1); k <= 8; k++ {
		got, err := c.ScalarMulLadder(modn.FromUint64(k), g, LadderOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(c.ScalarMulDoubleAndAdd(modn.FromUint64(k), g)) {
			t.Fatalf("ladder wrong for k=%d", k)
		}
	}
	// k = 0 -> O.
	if p, err := c.ScalarMulLadder(modn.Zero(), g, LadderOptions{}); err != nil || !p.Inf {
		t.Fatalf("0*G = %v (err %v), want O", p, err)
	}
	// k = n-1 -> -G (exercises the Z1 = 0 recovery path).
	nm1 := c.Order.Sub(modn.Zero(), modn.One())
	if p, err := c.ScalarMulLadder(nm1, g, LadderOptions{}); err != nil || !p.Equal(c.Neg(g)) {
		t.Fatalf("(n-1)*G != -G (err %v)", err)
	}
	// Invalid inputs.
	if _, err := c.ScalarMulLadder(modn.One(), Infinity(), LadderOptions{}); err == nil {
		t.Fatal("ladder accepted the point at infinity")
	}
	if _, err := c.ScalarMulLadder(c.Order.N(), g, LadderOptions{}); err == nil {
		t.Fatal("ladder accepted an unreduced scalar")
	}
}

func TestRandomizedProjectiveCoordinatesInvariance(t *testing.T) {
	// The DPA countermeasure must not change results: same point, same
	// scalar, different randomness, identical output.
	c := K163()
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 10; i++ {
		k := c.Order.Rand(r.Uint64)
		p := c.RandomPoint(r.Uint64)
		plain, err := c.ScalarMulLadder(k, p, LadderOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 3; trial++ {
			masked, err := c.ScalarMulLadder(k, p, LadderOptions{Rand: r.Uint64})
			if err != nil {
				t.Fatal(err)
			}
			if !masked.Equal(plain) {
				t.Fatal("RPC changed the scalar-multiplication result")
			}
		}
		// Fixed (attacker-known) randomness — the white-box mode.
		fixed, err := c.ScalarMulLadder(k, p, LadderOptions{
			FixedLambda: gf2m.FromUint64(0xdeadbeef),
			FixedMu:     gf2m.FromUint64(0x1234567),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !fixed.Equal(plain) {
			t.Fatal("fixed-randomness RPC changed the result")
		}
	}
}

func TestLadderStateIntermediateInvariant(t *testing.T) {
	// After processing the top j bits of k, the state must represent
	// x(k_j * P) and x((k_j + 1) * P) where k_j is the partial scalar.
	// This invariant is exactly what the DPA attack predicts.
	c := K163()
	r := rand.New(rand.NewSource(4))
	p := c.RandomPoint(r.Uint64)
	k := c.Order.Rand(r.Uint64)
	s := NewLadderState(p.X, gf2m.Zero(), gf2m.Zero())
	partial := modn.Zero()
	for i := LadderBits - 1; i >= LadderBits-20; i-- {
		bit := k.Bit(i)
		s.Step(bit, p.X, c.B)
		partial = c.Order.Add(c.Order.Add(partial, partial), modn.FromUint64(uint64(bit)))
		if partial.IsZero() {
			if !s.Z0.IsZero() {
				t.Fatal("partial scalar 0 should give Z0 = 0")
			}
			continue
		}
		want := c.ScalarMulDoubleAndAdd(partial, p)
		got := gf2m.Div(s.X0, s.Z0)
		if !got.Equal(want.X) {
			t.Fatalf("ladder intermediate mismatch at bit %d", i)
		}
	}
}

func TestXOnlyScalarMul(t *testing.T) {
	c := K163()
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 10; i++ {
		k := c.Order.Rand(r.Uint64)
		p := c.RandomPoint(r.Uint64)
		want := c.ScalarMulDoubleAndAdd(k, p)
		x, ok := c.XOnlyScalarMul(k, p.X, LadderOptions{Rand: r.Uint64})
		if k.IsZero() {
			if ok {
				t.Fatal("0*P should report infinity")
			}
			continue
		}
		if !ok || !x.Equal(want.X) {
			t.Fatal("x-only result mismatch")
		}
	}
}

func TestSolveYProducesCurvePoints(t *testing.T) {
	c := K163()
	r := rand.New(rand.NewSource(6))
	solvable, unsolvable := 0, 0
	for i := 0; i < 200; i++ {
		x := gf2m.FromWords(r.Uint64(), r.Uint64(), r.Uint64())
		y, ok := c.SolveY(x)
		if !ok {
			unsolvable++
			continue
		}
		solvable++
		if !c.OnCurve(Point{X: x, Y: y}) {
			t.Fatalf("SolveY produced an off-curve point for x=%v", x)
		}
		// The conjugate y+x must also be on the curve.
		if !c.OnCurve(Point{X: x, Y: gf2m.Add(y, x)}) {
			t.Fatal("conjugate solution off curve")
		}
	}
	// Roughly half of all x are solvable.
	if solvable < 60 || unsolvable < 60 {
		t.Fatalf("implausible solvability split: %d/%d", solvable, unsolvable)
	}
}

func TestCompressDecompressRoundTrip(t *testing.T) {
	c := K163()
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		p := c.RandomPoint(r.Uint64)
		enc, err := c.Compress(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(enc) != 1+gf2m.ByteLen {
			t.Fatalf("compressed length %d", len(enc))
		}
		got, err := c.Decompress(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(p) {
			t.Fatalf("round trip failed: %v -> %v", p, got)
		}
	}
	if _, err := c.Compress(Infinity()); err == nil {
		t.Fatal("compressed the point at infinity")
	}
	if _, err := c.Decompress([]byte{0x04, 1, 2}); err == nil {
		t.Fatal("decompressed malformed bytes")
	}
	if _, err := c.Decompress(make([]byte, 1+gf2m.ByteLen)); err == nil {
		t.Fatal("decompressed header 0x00")
	}
}

// decompressTwoInversions decompresses through the public SolveY and
// a second inversion, z = y/x, for the parity check.
func decompressTwoInversions(c *Curve, b []byte) (Point, bool) {
	x := gf2m.FromBytes(b[1:])
	y, ok := c.SolveY(x)
	if !ok {
		return Point{}, false
	}
	if gf2m.Div(y, x).Bit(0) != uint(b[0]&1) {
		y = gf2m.Add(y, x)
	}
	return Point{X: x, Y: y}, true
}

// TestDecompressMatchesTwoInversionPath pins Decompress, which takes
// the parity from the half-trace root directly, to the SolveY+Div path
// on random points of both curves and both compression parities (p
// and -p = (x, x+y) have opposite parities), and checks it does not
// allocate.
func TestDecompressMatchesTwoInversionPath(t *testing.T) {
	r := rand.New(rand.NewSource(163))
	for _, c := range curvesUnderTest() {
		var parities [2]int
		for i := 0; i < 40; i++ {
			p := c.RandomPoint(r.Uint64)
			for _, q := range []Point{p, c.Neg(p)} {
				enc, err := c.Compress(q)
				if err != nil {
					t.Fatal(err)
				}
				parities[enc[0]&1]++
				got, err := c.Decompress(enc)
				want, ok := decompressTwoInversions(c, enc)
				if err != nil || !ok || !got.Equal(want) || !got.Equal(q) {
					t.Fatalf("%s: Decompress(%x) = %v, %v; two-inversion path %v; want %v", c.Name, enc, got, err, want, q)
				}
			}
		}
		if parities[0] == 0 || parities[1] == 0 {
			t.Fatalf("%s: parities %v: both must occur", c.Name, parities)
		}
		enc, _ := c.Compress(c.Generator())
		if n := testing.AllocsPerRun(20, func() { _, _ = c.Decompress(enc) }); n != 0 {
			t.Fatalf("%s: Decompress allocates %v times per call", c.Name, n)
		}
	}
}

func TestValidate(t *testing.T) {
	c := K163()
	r := rand.New(rand.NewSource(8))
	p := c.RandomPoint(r.Uint64)
	if err := c.Validate(p); err != nil {
		t.Fatalf("valid point rejected: %v", err)
	}
	if err := c.Validate(Infinity()); err == nil {
		t.Fatal("O accepted")
	}
	bad := p
	bad.Y = gf2m.Add(bad.Y, gf2m.One())
	if err := c.Validate(bad); err == nil {
		t.Fatal("off-curve point accepted (fault-attack guard broken)")
	}
	// A point of order 2n: subgroup point + order-2 point.
	yt, _ := c.SolveY(gf2m.Zero())
	wrongSub := c.Add(p, Point{X: gf2m.Zero(), Y: yt})
	if !c.OnCurve(wrongSub) {
		t.Fatal("construction error")
	}
	if err := c.Validate(wrongSub); err == nil {
		t.Fatal("point outside the prime-order subgroup accepted")
	}
}

func TestDoubleAndAddOpCount(t *testing.T) {
	d, a := DoubleAndAddOpCount(modn.FromUint64(0b1011))
	if d != 4 || a != 3 {
		t.Fatalf("op count (%d,%d), want (4,3)", d, a)
	}
	d, a = DoubleAndAddOpCount(modn.Zero())
	if d != 0 || a != 0 {
		t.Fatal("op count for zero scalar should be zero")
	}
}

func TestScalarMulIsGroupHomomorphism(t *testing.T) {
	// (k1 + k2 mod n) * P == k1*P + k2*P.
	c := K163()
	r := rand.New(rand.NewSource(9))
	p := c.RandomPoint(r.Uint64)
	for i := 0; i < 8; i++ {
		k1 := c.Order.Rand(r.Uint64)
		k2 := c.Order.Rand(r.Uint64)
		lhs, err := c.ScalarMulLadder(c.Order.Add(k1, k2), p, LadderOptions{})
		if err != nil {
			t.Fatal(err)
		}
		p1, _ := c.ScalarMulLadder(k1, p, LadderOptions{})
		p2, _ := c.ScalarMulLadder(k2, p, LadderOptions{})
		if !lhs.Equal(c.Add(p1, p2)) {
			t.Fatal("scalar multiplication not a homomorphism")
		}
	}
}

func TestRandomPointProperties(t *testing.T) {
	c := K163()
	r := rand.New(rand.NewSource(10))
	seen := map[string]bool{}
	for i := 0; i < 25; i++ {
		p := c.RandomPoint(r.Uint64)
		if err := c.Validate(p); err != nil {
			t.Fatalf("RandomPoint invalid: %v", err)
		}
		seen[p.X.String()] = true
	}
	if len(seen) < 25 {
		t.Fatal("RandomPoint repeats suspiciously")
	}
}

func BenchmarkScalarMulLadder(b *testing.B) {
	c := K163()
	r := rand.New(rand.NewSource(1))
	k := c.Order.Rand(r.Uint64)
	g := c.Generator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ScalarMulLadder(k, g, LadderOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScalarMulLadderRPC(b *testing.B) {
	c := K163()
	r := rand.New(rand.NewSource(1))
	k := c.Order.Rand(r.Uint64)
	g := c.Generator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ScalarMulLadder(k, g, LadderOptions{Rand: r.Uint64}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScalarMulDoubleAndAdd(b *testing.B) {
	c := K163()
	r := rand.New(rand.NewSource(1))
	k := c.Order.Rand(r.Uint64)
	g := c.Generator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkPoint = c.ScalarMulDoubleAndAdd(k, g)
	}
}

func BenchmarkDecompress(b *testing.B) {
	c := K163()
	enc, err := c.Compress(c.RandomPoint(rand.New(rand.NewSource(1)).Uint64))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sinkPoint, err = c.Decompress(enc); err != nil {
			b.Fatal(err)
		}
	}
}

var sinkPoint Point

package gf2m

import (
	"math/rand"
	"testing"
)

// TestGenericMatchesFixed cross-checks the two independent GF(2^163)
// implementations on every operation.
func TestGenericMatchesFixed(t *testing.T) {
	f := NISTK163Field()
	r := rand.New(rand.NewSource(20))
	for i := 0; i < 300; i++ {
		a := randElement(r)
		b := randElement(r)
		ga, gb := f.FromElement(a), f.FromElement(b)

		if got := f.ToElement(f.Add(ga, gb)); !got.Equal(Add(a, b)) {
			t.Fatalf("generic Add disagrees for a=%v b=%v", a, b)
		}
		if got := f.ToElement(f.Mul(ga, gb)); !got.Equal(Mul(a, b)) {
			t.Fatalf("generic Mul disagrees for a=%v b=%v", a, b)
		}
		if got := f.ToElement(f.Sqr(ga)); !got.Equal(Sqr(a)) {
			t.Fatalf("generic Sqr disagrees for a=%v", a)
		}
		if !a.IsZero() {
			if got := f.ToElement(f.Inv(ga)); !got.Equal(Inv(a)) {
				t.Fatalf("generic Inv disagrees for a=%v", a)
			}
		}
		if f.Trace(ga) != Trace(a) {
			t.Fatalf("generic Trace disagrees for a=%v", a)
		}
	}
	// Sqrt and HalfTrace on a smaller sample: in the generic path each
	// is m-1 = 162 bit-serial squarings.
	for i := 0; i < 10; i++ {
		a := randElement(r)
		ga := f.FromElement(a)
		if got := f.ToElement(f.Sqrt(ga)); !got.Equal(Sqrt(a)) {
			t.Fatalf("generic Sqrt disagrees for a=%v", a)
		}
		if got := f.ToElement(f.HalfTrace(ga)); !got.Equal(HalfTrace(a)) {
			t.Fatalf("generic HalfTrace disagrees for a=%v", a)
		}
	}
}

// fieldsUnderTest covers the NIST binary-field degrees the sweep
// experiments use, plus a word-boundary degree (128) and a tiny field.
func fieldsUnderTest() []*Field {
	return []*Field{
		MustField(8, []int{4, 3, 1, 0}),    // AES-like small field
		MustField(64, []int{4, 3, 1, 0}),   // single full word
		MustField(128, []int{7, 2, 1, 0}),  // two full words (m % 64 == 0)
		MustField(131, []int{8, 3, 2, 0}),  // low-security sweep point
		NISTK163Field(),                    // the paper's field
		MustField(233, []int{74, 0}),       // NIST K-233 trinomial
		MustField(283, []int{12, 7, 5, 0}), // NIST K-283 pentanomial
	}
}

func TestGenericFieldAxioms(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	src := r.Uint64
	for _, f := range fieldsUnderTest() {
		for i := 0; i < 60; i++ {
			a, b, c := f.Rand(src), f.Rand(src), f.Rand(src)
			if !f.Equal(f.Mul(a, b), f.Mul(b, a)) {
				t.Fatalf("m=%d: mul not commutative", f.M)
			}
			if !f.Equal(f.Mul(f.Mul(a, b), c), f.Mul(a, f.Mul(b, c))) {
				t.Fatalf("m=%d: mul not associative", f.M)
			}
			if !f.Equal(f.Mul(a, f.Add(b, c)), f.Add(f.Mul(a, b), f.Mul(a, c))) {
				t.Fatalf("m=%d: mul not distributive", f.M)
			}
			if !f.Equal(f.Mul(a, f.One()), a) {
				t.Fatalf("m=%d: one not identity", f.M)
			}
			if !f.IsZero(f.Mul(a, f.Zero())) {
				t.Fatalf("m=%d: a*0 != 0", f.M)
			}
			if !f.IsZero(a) {
				if !f.Equal(f.Mul(a, f.Inv(a)), f.One()) {
					t.Fatalf("m=%d: a*a^-1 != 1 for a=%s", f.M, f.String(a))
				}
			}
			if !f.Equal(f.Sqr(a), f.Mul(a, a)) {
				t.Fatalf("m=%d: sqr != self-mul", f.M)
			}
		}
	}
}

func TestGenericSqrtAndHalfTrace(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	src := r.Uint64
	for _, f := range fieldsUnderTest() {
		if f.M > 163 {
			continue // keep runtime modest; covered by axioms above
		}
		for i := 0; i < 10; i++ {
			a := f.Rand(src)
			if !f.Equal(f.Sqr(f.Sqrt(a)), a) {
				t.Fatalf("m=%d: sqrt(a)^2 != a", f.M)
			}
		}
		if f.M%2 == 1 {
			for i := 0; i < 20; i++ {
				c := f.Rand(src)
				if f.Trace(c) != 0 {
					continue
				}
				z := f.HalfTrace(c)
				if !f.Equal(f.Add(f.Sqr(z), z), c) {
					t.Fatalf("m=%d: half-trace fails", f.M)
				}
			}
		}
	}
}

func TestGenericHalfTracePanicsForEvenDegree(t *testing.T) {
	f := MustField(8, []int{4, 3, 1, 0})
	defer func() {
		if recover() == nil {
			t.Fatal("HalfTrace on even-degree field did not panic")
		}
	}()
	f.HalfTrace(f.One())
}

func TestGenericInvZero(t *testing.T) {
	f := NISTK163Field()
	if !f.IsZero(f.Inv(f.Zero())) {
		t.Fatal("generic Inv(0) should be 0")
	}
}

func TestGenericBitHelpers(t *testing.T) {
	f := NISTK163Field()
	e := f.Zero()
	f.SetBit(e, 162, 1)
	if f.Bit(e, 162) != 1 || f.Degree(e) != 162 {
		t.Fatal("SetBit/Bit/Degree broken at top bit")
	}
	f.SetBit(e, 162, 0)
	if !f.IsZero(e) || f.Degree(e) != -1 {
		t.Fatal("clearing top bit failed")
	}
	f.SetBit(e, 200, 1) // out of range: inert
	if !f.IsZero(e) {
		t.Fatal("out-of-range SetBit mutated element")
	}
}

func TestNewFieldValidation(t *testing.T) {
	cases := []struct {
		m    int
		poly []int
	}{
		{1, []int{0}},         // degree too small
		{2000, []int{1, 0}},   // degree too large
		{163, nil},            // empty polynomial
		{163, []int{7, 6, 3}}, // missing constant term
		{163, []int{163, 0}},  // exponent out of range
		{163, []int{3, 7, 0}}, // not decreasing
		{163, []int{7, 7, 0}}, // repeated exponent
		{163, []int{-1, 0}},   // negative exponent
	}
	for _, c := range cases {
		if _, err := NewField(c.m, c.poly); err == nil {
			t.Fatalf("NewField(%d, %v) accepted invalid input", c.m, c.poly)
		}
	}
	if _, err := NewField(163, []int{7, 6, 3, 0}); err != nil {
		t.Fatalf("valid field rejected: %v", err)
	}
}

func TestMustFieldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustField did not panic on invalid input")
		}
	}()
	MustField(0, nil)
}

func TestGenericStringRoundTripAgainstFixed(t *testing.T) {
	f := NISTK163Field()
	r := rand.New(rand.NewSource(23))
	for i := 0; i < 50; i++ {
		a := randElement(r)
		if f.String(f.FromElement(a)) != a.String() {
			t.Fatalf("string mismatch for %v", a)
		}
	}
}

func TestFieldConversionPanicsOnDegreeMismatch(t *testing.T) {
	f := MustField(233, []int{74, 0})
	defer func() {
		if recover() == nil {
			t.Fatal("FromElement on non-163 field did not panic")
		}
	}()
	f.FromElement(One())
}

func BenchmarkGenericMul163(b *testing.B) {
	f := NISTK163Field()
	r := rand.New(rand.NewSource(1))
	x, y := f.Rand(r.Uint64), f.Rand(r.Uint64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = f.Mul(x, y)
	}
}

func BenchmarkGenericInv163(b *testing.B) {
	f := NISTK163Field()
	r := rand.New(rand.NewSource(1))
	x := f.Rand(r.Uint64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		y := f.Inv(x)
		x[0] ^= y[0] | 1
	}
}

package gf2m

import (
	"math/rand"
	"testing"
)

// This file pins the Karatsuba multiplier against the generic
// bit-serial field (generic.go), which shares no code with the fixed
// path: different multiplication algorithm (shift-and-add with
// interleaved reduction vs 3-word Karatsuba over a multiply-based
// carry-less word product), different inversion, different reduction.
// Any systematic error in the word kernel, the Karatsuba recombination,
// or the lazy-reduction helpers shows up as a divergence here.

// structuredElements returns the adversarial corner inputs for the
// multiplier: zero, one, every single-bit element, the all-ones
// canonical element, and elements hugging the x^163 reduction
// boundary, where the word kernel's top-nibble correction and the
// uncorrected top-word product (clmul60) earn their keep.
func structuredElements() []Element {
	es := []Element{
		Zero(),
		One(),
		{^uint64(0), ^uint64(0), 1<<35 - 1}, // all ones, canonical
		{0, 0, 1 << 34},                     // x^162
		{0xc9, 0, 1 << 34},                  // x^162 + reduction tail
		{^uint64(0), 0, 0},                  // dense low word
		{0, ^uint64(0), 0},                  // dense middle word
		{0, 0, 1<<35 - 1},                   // dense top word
		{0x8000000000000000, 0x8000000000000000, 1},    // word-boundary bits
		{0x1111111111111111, 0x1111111111111111, 0x11}, // bit-class mask pattern
	}
	for i := 0; i < M; i++ {
		es = append(es, Zero().SetBit(i, 1))
	}
	return es
}

// crossCheckPair verifies every public multiplication surface on one
// operand pair against the generic field.
func crossCheckPair(t *testing.T, f *Field, a, b Element) {
	t.Helper()
	want := f.ToElement(f.Mul(f.FromElement(a), f.FromElement(b)))
	if got := Mul(a, b); !got.Equal(want) {
		t.Fatalf("Mul(%v, %v) = %v, generic says %v", a, b, got, want)
	}
	if got := Reduce(MulNoReduce(a, b)); !got.Equal(want) {
		t.Fatalf("Reduce(MulNoReduce(%v, %v)) diverged from generic", a, b)
	}
}

func TestKaratsubaCrossGenericStructured(t *testing.T) {
	f := NISTK163Field()
	es := structuredElements()
	// All pairs over the fixed corner list (first 10 entries) and each
	// corner against a sweep of single-bit elements.
	for i := 0; i < 10; i++ {
		for _, b := range es {
			crossCheckPair(t, f, es[i], b)
		}
	}
}

func TestKaratsubaCrossGenericRandom(t *testing.T) {
	f := NISTK163Field()
	r := rand.New(rand.NewSource(0x5eed_ca1c))
	for i := 0; i < 300; i++ {
		crossCheckPair(t, f, randElement(r), randElement(r))
	}
}

// TestMulAccLazyReduction pins the identity the ec projective formulas
// rely on: because reduction mod f is GF(2)-linear,
// Reduce(Σ aᵢ·bᵢ unreduced) must be bit-identical to Σ Mul(aᵢ, bᵢ).
func TestMulAccLazyReduction(t *testing.T) {
	r := rand.New(rand.NewSource(0xacc))
	for i := 0; i < 200; i++ {
		n := 2 + r.Intn(4)
		var acc [6]uint64
		sum := Zero()
		for j := 0; j < n; j++ {
			a, b := randElement(r), randElement(r)
			MulAcc(&acc, a, b)
			sum = Add(sum, Mul(a, b))
		}
		if got := Reduce(acc); !got.Equal(sum) {
			t.Fatalf("lazy-reduced %d-term sum diverged from reduced-per-term sum", n)
		}
	}
}

// TestSqrNoReduce pins Reduce(SqrNoReduce(e)) == Sqr(e) == generic e².
func TestSqrNoReduce(t *testing.T) {
	f := NISTK163Field()
	r := rand.New(rand.NewSource(0x5a5a))
	check := func(e Element) {
		want := f.ToElement(f.Sqr(f.FromElement(e)))
		if got := Reduce(SqrNoReduce(e)); !got.Equal(want) {
			t.Fatalf("Reduce(SqrNoReduce(%v)) diverged from generic square", e)
		}
		if got := Sqr(e); !got.Equal(want) {
			t.Fatalf("Sqr(%v) diverged from generic square", e)
		}
	}
	for _, e := range structuredElements() {
		check(e)
	}
	for i := 0; i < 200; i++ {
		check(randElement(r))
	}
}

// TestShlModCrossGeneric pins the specialized shift-reduce against
// generic multiplication by x^s, across every shift the MALU model
// uses (digit sizes 1..maxDigit) and then some.
func TestShlModCrossGeneric(t *testing.T) {
	f := NISTK163Field()
	r := rand.New(rand.NewSource(0x5317))
	for s := uint(0); s <= 8; s++ {
		xs := f.Zero()
		f.SetBit(xs, int(s), 1)
		for _, e := range structuredElements() {
			want := f.ToElement(f.Mul(f.FromElement(e), xs))
			if got := ShlMod(e, s); !got.Equal(want) {
				t.Fatalf("ShlMod(%v, %d) = %v, generic says %v", e, s, got, want)
			}
		}
		for i := 0; i < 50; i++ {
			e := randElement(r)
			want := f.ToElement(f.Mul(f.FromElement(e), xs))
			if got := ShlMod(e, s); !got.Equal(want) {
				t.Fatalf("ShlMod(random, %d) diverged from generic", s)
			}
		}
	}
}

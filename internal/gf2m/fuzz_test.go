package gf2m

import (
	"bytes"
	"testing"
)

// FuzzFromBytes: decoding arbitrary bytes must yield a canonical
// element whose re-encoding round-trips (after canonicalization).
func FuzzFromBytes(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xff})
	f.Add(bytes.Repeat([]byte{0xff}, ByteLen))
	f.Add(bytes.Repeat([]byte{0xff}, ByteLen+5))
	f.Fuzz(func(t *testing.T, data []byte) {
		e := FromBytes(data)
		if e.Degree() >= M {
			t.Fatalf("non-canonical element decoded: degree %d", e.Degree())
		}
		again := FromBytes(e.Bytes())
		if !again.Equal(e) {
			t.Fatal("encode/decode not a round trip")
		}
		// Algebra stays consistent on fuzzed inputs.
		if !Mul(e, One()).Equal(e) {
			t.Fatal("identity broken on fuzzed element")
		}
		if !Add(e, e).IsZero() {
			t.Fatal("characteristic-2 addition broken")
		}
		if !Sqr(e).Equal(Mul(e, e)) {
			t.Fatal("squaring inconsistent")
		}
	})
}

// FuzzClmul64: the 64x64 carry-less word product must equal the
// bit-serial reference on arbitrary word pairs. Seeds are the inputs
// that break a multiply-based kernel without the top-nibble correction.
func FuzzClmul64(f *testing.F) {
	f.Add(^uint64(0), ^uint64(0))
	f.Add(uint64(0x1111111111111111), uint64(0x1111111111111111))
	f.Add(uint64(0x8888888888888888), uint64(0x8888888888888888))
	f.Add(uint64(0xf<<60), ^uint64(0))
	f.Add(uint64(1<<60), ^uint64(0))
	f.Fuzz(func(t *testing.T, x, y uint64) {
		hi, lo := clmul64(x, y)
		if shi, slo := clmul64Slow(x, y); hi != shi || lo != slo {
			t.Fatalf("clmul64(%#x, %#x) = (%#x, %#x), want (%#x, %#x)", x, y, hi, lo, shi, slo)
		}
	})
}

// FuzzMulCross: the Karatsuba fixed-path multiplier (and its unreduced
// and lazy-reduction variants) must agree with the generic bit-serial
// field on arbitrary canonical operands. Seeds cover the structural
// corners: zero, identity, all-ones, single top bit, the bit-class
// pattern, and the reduction-polynomial tail.
func FuzzMulCross(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0))
	f.Add(uint64(1), uint64(0), uint64(0), uint64(1), uint64(0), uint64(0))
	f.Add(^uint64(0), ^uint64(0), uint64(1<<35-1), ^uint64(0), ^uint64(0), uint64(1<<35-1))
	f.Add(uint64(0), uint64(0), uint64(1<<34), uint64(0xc9), uint64(0), uint64(1<<34))
	f.Add(uint64(0x1111111111111111), uint64(0), uint64(0), uint64(0x8000000000000000), uint64(0x8000000000000000), uint64(1))
	gen := NISTK163Field()
	f.Fuzz(func(t *testing.T, a0, a1, a2, b0, b1, b2 uint64) {
		a := Element{a0, a1, a2 & (1<<35 - 1)}
		b := Element{b0, b1, b2 & (1<<35 - 1)}
		want := gen.ToElement(gen.Mul(gen.FromElement(a), gen.FromElement(b)))
		if got := Mul(a, b); !got.Equal(want) {
			t.Fatalf("Mul diverged from generic field: got %v, want %v", got, want)
		}
		if got := Reduce(MulNoReduce(a, b)); !got.Equal(want) {
			t.Fatal("MulNoReduce+Reduce diverged from generic field")
		}
		var acc [6]uint64
		MulAcc(&acc, a, b)
		if got := Reduce(acc); !got.Equal(want) {
			t.Fatal("MulAcc+Reduce diverged from generic field")
		}
		if !Reduce(SqrNoReduce(a)).Equal(Sqr(a)) {
			t.Fatal("SqrNoReduce+Reduce diverged from Sqr")
		}
	})
}

// FuzzInvCross: the table-driven Itoh–Tsujii inverse must equal the
// generic field's extended-Euclid inverse, and e·Inv(e) = 1 for e != 0.
func FuzzInvCross(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0))
	f.Add(uint64(1), uint64(0), uint64(0))
	f.Add(^uint64(0), ^uint64(0), uint64(1<<35-1))
	f.Add(uint64(0), uint64(0), uint64(1<<34))
	f.Add(uint64(0xc9), uint64(0), uint64(0))
	gen := NISTK163Field()
	f.Fuzz(func(t *testing.T, e0, e1, e2 uint64) {
		e := FromWords(e0, e1, e2)
		inv := Inv(e)
		if want := gen.ToElement(gen.Inv(gen.FromElement(e))); !inv.Equal(want) {
			t.Fatalf("Inv(%v) = %v, generic field gives %v", e, inv, want)
		}
		if !e.IsZero() && !Mul(e, inv).IsOne() {
			t.Fatalf("%v · Inv(%v) != 1", e, e)
		}
	})
}

// FuzzHalfTrace: the table-driven half-trace must equal the generic
// field's and the repeated-squaring definition.
func FuzzHalfTrace(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0))
	f.Add(uint64(1), uint64(0), uint64(0))
	f.Add(^uint64(0), ^uint64(0), uint64(1<<35-1))
	f.Add(uint64(0), uint64(0), uint64(1<<34))
	gen := NISTK163Field()
	f.Fuzz(func(t *testing.T, e0, e1, e2 uint64) {
		e := FromWords(e0, e1, e2)
		h := HalfTrace(e)
		if want := gen.ToElement(gen.HalfTrace(gen.FromElement(e))); !h.Equal(want) {
			t.Fatalf("HalfTrace(%v) = %v, generic field gives %v", e, h, want)
		}
		if want := halfTraceByDefinition(e); !h.Equal(want) {
			t.Fatalf("HalfTrace(%v) = %v, definition gives %v", e, h, want)
		}
	})
}

// FuzzReduce: arbitrary 6-word polynomials must reduce to canonical
// form consistently with multiply-then-reduce identities.
func FuzzReduce(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0))
	f.Add(^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), uint64(1<<5-1))
	f.Fuzz(func(t *testing.T, c0, c1, c2, c3, c4, c5 uint64) {
		// Keep within the degree bound reduce() documents (<= 324).
		c5 &= 1<<5 - 1
		r := Reduce([6]uint64{c0, c1, c2, c3, c4, c5})
		if r.Degree() >= M {
			t.Fatalf("reduce left degree %d", r.Degree())
		}
		// Reducing an already-reduced value is the identity.
		if again := Reduce([6]uint64{r[0], r[1], r[2], 0, 0, 0}); !again.Equal(r) {
			t.Fatal("reduce not idempotent on canonical values")
		}
	})
}

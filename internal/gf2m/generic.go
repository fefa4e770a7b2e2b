package gf2m

import (
	"fmt"
	"math/bits"
)

// Field describes a generic binary extension field GF(2^m) with an
// arbitrary reduction polynomial. It is deliberately implemented with
// different algorithms from the fixed GF(2^163) path (bitwise
// multiplication with interleaved reduction, extended Euclidean
// inversion) so the two implementations can property-test each other.
type Field struct {
	// M is the extension degree.
	M int
	// Poly holds the exponents of the nonzero terms of the reduction
	// polynomial except the leading x^M term, in decreasing order and
	// ending with 0 (the constant term). For the NIST pentanomial
	// x^163+x^7+x^6+x^3+1 this is [7 6 3 0].
	Poly []int

	words int
	// red is the reduction polynomial minus the leading term, as a
	// bit vector (used for shift-and-xor reduction).
	red []uint64
	// topWord and topBit locate coefficient x^(M-1).
	topMask uint64
}

// FE is an element of a generic Field: little-endian 64-bit words,
// always len == field.words and always reduced below degree M.
type FE []uint64

// NewField constructs GF(2^m) with reduction polynomial
// x^m + sum x^poly[i]. The polynomial must be monic of degree m with
// all listed exponents strictly below m and include the constant term.
func NewField(m int, poly []int) (*Field, error) {
	if m < 2 || m > 1024 {
		return nil, fmt.Errorf("gf2m: unsupported extension degree %d", m)
	}
	if len(poly) == 0 || poly[len(poly)-1] != 0 {
		return nil, fmt.Errorf("gf2m: reduction polynomial must include constant term")
	}
	for i, e := range poly {
		if e < 0 || e >= m {
			return nil, fmt.Errorf("gf2m: reduction exponent %d out of range", e)
		}
		if i > 0 && e >= poly[i-1] {
			return nil, fmt.Errorf("gf2m: reduction exponents must be strictly decreasing")
		}
	}
	f := &Field{
		M:     m,
		Poly:  append([]int(nil), poly...),
		words: (m + 63) / 64,
	}
	f.red = make([]uint64, f.words)
	for _, e := range poly {
		f.red[e>>6] |= 1 << (uint(e) & 63)
	}
	if r := uint(m) & 63; r == 0 {
		f.topMask = ^uint64(0)
	} else {
		f.topMask = 1<<r - 1
	}
	return f, nil
}

// MustField is NewField for package-level constants; it panics on error.
func MustField(m int, poly []int) *Field {
	f, err := NewField(m, poly)
	if err != nil {
		panic(err)
	}
	return f
}

// NISTK163Field returns the paper's field GF(2^163) with the NIST
// pentanomial, in generic representation.
func NISTK163Field() *Field { return MustField(163, []int{7, 6, 3, 0}) }

// Zero returns a fresh zero element.
func (f *Field) Zero() FE { return make(FE, f.words) }

// One returns a fresh multiplicative identity.
func (f *Field) One() FE {
	e := make(FE, f.words)
	e[0] = 1
	return e
}

// Copy returns an independent copy of e.
func (f *Field) Copy(e FE) FE { return append(FE(nil), e...) }

// IsZero reports whether e is zero.
func (f *Field) IsZero(e FE) bool {
	var acc uint64
	for _, w := range e {
		acc |= w
	}
	return acc == 0
}

// Equal reports whether a and b are the same element.
func (f *Field) Equal(a, b FE) bool {
	var acc uint64
	for i := range a {
		acc |= a[i] ^ b[i]
	}
	return acc == 0
}

// Bit returns coefficient i of e.
func (f *Field) Bit(e FE, i int) uint {
	if i < 0 || i >= f.M {
		return 0
	}
	return uint(e[i>>6]>>(uint(i)&63)) & 1
}

// SetBit sets coefficient i of e in place.
func (f *Field) SetBit(e FE, i int, b uint) {
	if i < 0 || i >= f.M {
		return
	}
	w, s := i>>6, uint(i)&63
	e[w] = e[w]&^(1<<s) | uint64(b&1)<<s
}

// Degree returns the polynomial degree of e, or -1 for zero.
func (f *Field) Degree(e FE) int {
	for w := len(e) - 1; w >= 0; w-- {
		if e[w] != 0 {
			return w*64 + 63 - bits.LeadingZeros64(e[w])
		}
	}
	return -1
}

// Add returns a + b.
func (f *Field) Add(a, b FE) FE {
	out := make(FE, f.words)
	for i := range out {
		out[i] = a[i] ^ b[i]
	}
	return out
}

// shl1 shifts v left by one bit in place and returns the bit shifted
// out of the top of the register (not of the field).
func shl1(v []uint64) uint64 {
	carry := uint64(0)
	for i := range v {
		next := v[i] >> 63
		v[i] = v[i]<<1 | carry
		carry = next
	}
	return carry
}

// reduceOnce folds coefficient x^M of v (if set) back into the low
// part using the reduction polynomial; v must have degree <= M.
func (f *Field) reduceTop(v []uint64) {
	w, s := f.M>>6, uint(f.M)&63
	if w < len(v) && v[w]>>s&1 == 1 {
		v[w] &^= 1 << s
		for i, r := range f.red {
			v[i] ^= r
		}
	}
}

// Mul returns a * b using left-to-right shift-and-add with interleaved
// reduction — the classic bit-serial hardware multiplier, and an
// algorithm entirely unlike the fixed path's Karatsuba over
// integer-multiply word products.
func (f *Field) Mul(a, b FE) FE {
	acc := make(FE, f.words)
	for i := f.M - 1; i >= 0; i-- {
		carry := shl1(acc)
		if f.M == 64*f.words {
			// x^M is the register carry-out.
			if carry == 1 {
				for j, r := range f.red {
					acc[j] ^= r
				}
			}
		} else {
			f.reduceTop(acc)
		}
		if f.Bit(a, i) == 1 {
			for j := range acc {
				acc[j] ^= b[j]
			}
		}
	}
	return acc
}

// Sqr returns e^2 via Mul. (The generic path favours clarity over
// speed; the fixed path has the table-driven squarer.)
func (f *Field) Sqr(e FE) FE { return f.Mul(e, e) }

// Inv returns the inverse of e using the binary extended Euclidean
// algorithm for polynomials over GF(2). Inverting zero returns zero.
func (f *Field) Inv(e FE) FE {
	if f.IsZero(e) {
		return f.Zero()
	}
	// u, v are polynomials; g1, g2 track the Bezout coefficients.
	// fPoly = x^M + red (one extra word in case M is a multiple of 64).
	n := f.words + 1
	u := make([]uint64, n)
	v := make([]uint64, n)
	g1 := make([]uint64, n)
	g2 := make([]uint64, n)
	copy(u, e)
	copy(v, f.red)
	v[f.M>>6] |= 1 << (uint(f.M) & 63)
	g1[0] = 1

	deg := func(p []uint64) int {
		for w := len(p) - 1; w >= 0; w-- {
			if p[w] != 0 {
				return w*64 + 63 - bits.LeadingZeros64(p[w])
			}
		}
		return -1
	}
	xorShift := func(dst, src []uint64, s int) {
		w, b := s>>6, uint(s)&63
		for i := 0; i+w < len(dst); i++ {
			dst[i+w] ^= src[i] << b
			if b != 0 && i+w+1 < len(dst) {
				dst[i+w+1] ^= src[i] >> (64 - b)
			}
		}
	}
	du, dv := deg(u), deg(v)
	for du > 0 {
		if du < dv {
			u, v = v, u
			g1, g2 = g2, g1
			du, dv = dv, du
		}
		s := du - dv
		xorShift(u, v, s)
		xorShift(g1, g2, s)
		du = deg(u)
	}
	// u is now the constant 1; g1 is the inverse (reduced, since its
	// degree stayed below M throughout).
	out := make(FE, f.words)
	copy(out, g1[:f.words])
	return out
}

// Div returns a / b.
func (f *Field) Div(a, b FE) FE { return f.Mul(a, f.Inv(b)) }

// Sqrt returns e^(2^(m-1)), the unique square root.
func (f *Field) Sqrt(e FE) FE {
	out := f.Copy(e)
	for i := 0; i < f.M-1; i++ {
		out = f.Sqr(out)
	}
	return out
}

// Trace returns the absolute trace of e.
func (f *Field) Trace(e FE) uint {
	s := f.Copy(e)
	t := f.Copy(e)
	for i := 1; i < f.M; i++ {
		t = f.Sqr(t)
		s = f.Add(s, t)
	}
	return uint(s[0] & 1)
}

// HalfTrace returns the half-trace of e (m must be odd), solving
// z^2 + z = e when Tr(e) = 0.
func (f *Field) HalfTrace(e FE) FE {
	if f.M%2 == 0 {
		panic("gf2m: half-trace requires odd extension degree")
	}
	h := f.Copy(e)
	t := f.Copy(e)
	for i := 1; i <= (f.M-1)/2; i++ {
		t = f.Sqr(f.Sqr(t))
		h = f.Add(h, t)
	}
	return h
}

// FromElement converts a fixed GF(2^163) element to the generic
// representation; the field must be a degree-163 field.
func (f *Field) FromElement(e Element) FE {
	if f.M != M {
		panic("gf2m: field degree mismatch")
	}
	return FE{e[0], e[1], e[2]}
}

// ToElement converts a generic element of a degree-163 field to the
// fixed representation.
func (f *Field) ToElement(e FE) Element {
	if f.M != M {
		panic("gf2m: field degree mismatch")
	}
	return Element{e[0], e[1], e[2]}
}

// Rand returns a uniformly random field element drawn from src, a
// function yielding uniform uint64 values.
func (f *Field) Rand(src func() uint64) FE {
	e := make(FE, f.words)
	for i := range e {
		e[i] = src()
	}
	if r := uint(f.M) & 63; r != 0 {
		e[f.words-1] &= 1<<r - 1
	}
	return e
}

// String renders e in big-endian hex.
func (f *Field) String(e FE) string {
	const hexdigits = "0123456789abcdef"
	nhex := (f.M + 3) / 4
	buf := make([]byte, 0, nhex)
	started := false
	for i := nhex - 1; i >= 0; i-- {
		nib := byte(e[(4*i)>>6]>>(uint(4*i)&63)) & 0xf
		if nib != 0 {
			started = true
		}
		if started {
			buf = append(buf, hexdigits[nib])
		}
	}
	if !started {
		return "0"
	}
	return string(buf)
}

// Package gf2m implements arithmetic in binary extension fields GF(2^m).
//
// The package provides two implementations:
//
//   - Element: a fast, fixed-size implementation of GF(2^163) with the
//     NIST reduction pentanomial f(x) = x^163 + x^7 + x^6 + x^3 + 1, the
//     field underlying the Koblitz curve K-163 used by the paper's
//     elliptic-curve co-processor. Elements are stored as three 64-bit
//     words in little-endian word order.
//
//   - Field / FE: a generic, variable-degree implementation supporting
//     arbitrary reduction polynomials. It is used for parameter sweeps
//     across security levels and doubles as an independent reference
//     implementation for cross-testing the fast path.
//
// All fixed-path operations are branch-free with respect to operand
// values (data-dependent branches are what the paper's timing- and
// SPA-countermeasures forbid). Mul has no operand-indexed memory
// access: its word product is built from integer multiplies
// (bits.Mul64), a single MUL instruction on amd64 and arm64, though Go
// does not promise constant-time multiplication on every target. Sqr
// and Sqrt still look up byte-indexed tables, and Inv and HalfTrace
// look up nibble-indexed tables of GF(2)-linear maps, about 79 KB in all
// (linTab). These are properties of the simulator's software, not of
// the modelled chip, whose leakage the power model accounts for
// explicitly.
package gf2m

import "math/bits"

// M is the extension degree of the fixed field GF(2^163).
const M = 163

// Words is the number of 64-bit words backing a fixed-field Element.
const Words = 3

// topMask masks the valid bits of the most significant word of an
// Element: bits 128..162 live in word 2, so 35 bits are in use.
const topMask = (uint64(1) << (M - 128)) - 1

// Element is an element of GF(2^163) in polynomial basis: bit i of the
// little-endian word array is the coefficient of x^i.
type Element [Words]uint64

// Zero returns the additive identity.
func Zero() Element { return Element{} }

// One returns the multiplicative identity.
func One() Element { return Element{1, 0, 0} }

// IsZero reports whether e is the zero element.
func (e Element) IsZero() bool { return e[0]|e[1]|e[2] == 0 }

// IsOne reports whether e is the multiplicative identity.
func (e Element) IsOne() bool { return e[0] == 1 && e[1] == 0 && e[2] == 0 }

// Equal reports whether e and f represent the same field element.
func (e Element) Equal(f Element) bool {
	return e[0] == f[0] && e[1] == f[1] && e[2] == f[2]
}

// Bit returns coefficient i of e (0 for out-of-range i).
func (e Element) Bit(i int) uint {
	if i < 0 || i >= M {
		return 0
	}
	return uint(e[i>>6]>>(uint(i)&63)) & 1
}

// SetBit returns a copy of e with coefficient i set to b&1.
func (e Element) SetBit(i int, b uint) Element {
	if i < 0 || i >= M {
		return e
	}
	w, s := i>>6, uint(i)&63
	e[w] = e[w]&^(1<<s) | uint64(b&1)<<s
	return e
}

// Degree returns the degree of the polynomial representation of e, or
// -1 for the zero element.
func (e Element) Degree() int {
	for w := Words - 1; w >= 0; w-- {
		if e[w] != 0 {
			return w*64 + 63 - bits.LeadingZeros64(e[w])
		}
	}
	return -1
}

// Weight returns the Hamming weight (number of nonzero coefficients).
func (e Element) Weight() int {
	return bits.OnesCount64(e[0]) + bits.OnesCount64(e[1]) + bits.OnesCount64(e[2])
}

// HammingDistance returns the number of coefficient positions at which
// e and f differ. It is the quantity the switching-power model charges
// for a register update e -> f.
func HammingDistance(e, f Element) int {
	return bits.OnesCount64(e[0]^f[0]) + bits.OnesCount64(e[1]^f[1]) + bits.OnesCount64(e[2]^f[2])
}

// Add returns e + f. Addition in GF(2^m) is coefficient-wise XOR; in
// hardware it is a single-cycle 163-bit XOR array.
func Add(e, f Element) Element {
	return Element{e[0] ^ f[0], e[1] ^ f[1], e[2] ^ f[2]}
}

// normalize clears any bits at or above position M. Inputs built from
// external bytes may carry stray high bits; all arithmetic assumes
// canonical elements.
func (e Element) normalize() Element {
	e[2] &= topMask
	return e
}

// Bit-class masks of the multiply-based carry-less word product: class
// r holds the bits at positions ≡ r (mod 4).
const (
	class0 = 0x1111111111111111
	class1 = class0 << 1
	class2 = class0 << 2
	class3 = class0 << 3
)

// clmul64 returns the 128-bit carry-less product of x and y, built from
// integer multiplies. Each operand splits into its four bit classes
// (positions ≡ r mod 4); the integer product of classes i and j lands
// only on positions ≡ i+j, so XOR-ing the four class products that land
// on class r and masking to class r yields the carry-less product
// there. The 3-bit holes between a class's bits absorb the integer
// carries as long as no position gathers 16 terms, which a full class
// of 16 bits against another would do at position i+j+60. So the top
// nibble of x (bits 60..63) is split off first — leaving at most 15
// bits per class of x — and its product with y, four masked shifts of
// y, is added back. There are no data-dependent branches or memory
// accesses; bits.Mul64 is a single MUL instruction on amd64 and arm64.
func clmul64(x, y uint64) (hi, lo uint64) {
	t := x >> 60
	x &= 1<<60 - 1
	x0, x1, x2, x3 := x&class0, x&class1, x&class2, x&class3
	y0, y1, y2, y3 := y&class0, y&class1, y&class2, y&class3

	h00, l00 := bits.Mul64(x0, y0)
	h13, l13 := bits.Mul64(x1, y3)
	h22, l22 := bits.Mul64(x2, y2)
	h31, l31 := bits.Mul64(x3, y1)

	h01, l01 := bits.Mul64(x0, y1)
	h10, l10 := bits.Mul64(x1, y0)
	h23, l23 := bits.Mul64(x2, y3)
	h32, l32 := bits.Mul64(x3, y2)

	h02, l02 := bits.Mul64(x0, y2)
	h11, l11 := bits.Mul64(x1, y1)
	h20, l20 := bits.Mul64(x2, y0)
	h33, l33 := bits.Mul64(x3, y3)

	h03, l03 := bits.Mul64(x0, y3)
	h12, l12 := bits.Mul64(x1, y2)
	h21, l21 := bits.Mul64(x2, y1)
	h30, l30 := bits.Mul64(x3, y0)

	lo = (l00^l13^l22^l31)&class0 |
		(l01^l10^l23^l32)&class1 |
		(l02^l11^l20^l33)&class2 |
		(l03^l12^l21^l30)&class3
	hi = (h00^h13^h22^h31)&class0 |
		(h01^h10^h23^h32)&class1 |
		(h02^h11^h20^h33)&class2 |
		(h03^h12^h21^h30)&class3

	// Top-nibble correction: (bit k of t)·y·x^(60+k) for k = 0..3.
	m0, m1, m2, m3 := -(t & 1), -(t >> 1 & 1), -(t >> 2 & 1), -(t >> 3)
	lo ^= y<<60&m0 ^ y<<61&m1 ^ y<<62&m2 ^ y<<63&m3
	hi ^= y>>4&m0 ^ y>>3&m1 ^ y>>2&m2 ^ y>>1&m3
	return hi, lo
}

// mul320 returns the unreduced 6-word carry-less product of two
// elements using the 3-word Karatsuba decomposition of Dyka &
// Langendoerfer: six word products instead of schoolbook's nine. With
// A = a0 + a1·X + a2·X² over X = x^64 and Dij = (ai+aj)(bi+bj):
//
//	A·B = D00 + (D01+D00+D11)·X + (D02+D00+D11+D22)·X²
//	          + (D12+D11+D22)·X³ + D22·X⁴
//
// The configuration sweep in mulsweep_test.go (BenchmarkMulSweep)
// keeps the choice measured against schoolbook over the same word
// kernel, an uncorrected top-word product, and table-driven windowed
// combs.
func mul320(a, b Element) [6]uint64 {
	h0, l0 := clmul64(a[0], b[0])
	h1, l1 := clmul64(a[1], b[1])
	h2, l2 := clmul64(a[2], b[2])
	h01, l01 := clmul64(a[0]^a[1], b[0]^b[1])
	h02, l02 := clmul64(a[0]^a[2], b[0]^b[2])
	h12, l12 := clmul64(a[1]^a[2], b[1]^b[2])

	// Middle coefficients (each 128 bits).
	m1l, m1h := l01^l0^l1, h01^h0^h1       // X term: a0b1+a1b0
	m2l, m2h := l02^l0^l1^l2, h02^h0^h1^h2 // X² term: a0b2+a2b0+a1b1
	m3l, m3h := l12^l1^l2, h12^h1^h2       // X³ term: a1b2+a2b1

	return [6]uint64{l0, h0 ^ m1l, m1h ^ m2l, m2h ^ m3l, m3h ^ l2, h2}
}

// MulAcc accumulates the unreduced product a·b into acc: acc ^= a·b.
// Reduction mod f(x) is GF(2)-linear, so a multi-term sum can be
// accumulated unreduced and folded once at the end —
// Reduce(Σ aᵢ·bᵢ) == Σ Mul(aᵢ, bᵢ) bit-for-bit. The curve layer's
// projective formulas use this to pay one reduction per sum instead of
// one per product.
func MulAcc(acc *[6]uint64, a, b Element) {
	c := mul320(a, b)
	for i := range acc {
		acc[i] ^= c[i]
	}
}

// SqrNoReduce returns the unreduced 6-word carry-less square of e, for
// lazy-reduction sums mixing squares with products.
func SqrNoReduce(e Element) [6]uint64 {
	var c [6]uint64
	c[1], c[0] = spread64(e[0])
	c[3], c[2] = spread64(e[1])
	c[5], c[4] = spread64(e[2])
	return c
}

// reduce reduces a 6-word polynomial c0..c5 (little-endian words,
// degree <= 324) modulo f(x) = x^163 + x^7 + x^6 + x^3 + 1 using the
// congruence x^163 = x^7 + x^6 + x^3 + 1. Two folding rounds suffice
// because the first fold leaves degree at most 169. The words arrive
// as scalars so Sqr's spread words never pass through memory.
func reduce(c0, c1, c2, c3, c4, c5 uint64) Element {
	// h = c >> 163 (degrees 163..324, at most 162 bits).
	h0 := c2>>35 | c3<<29
	h1 := c3>>35 | c4<<29
	h2 := c4>>35 | c5<<29

	// low = c mod x^163, then fold h*(x^7+x^6+x^3+1) in. Shifts of the
	// 163-bit h by up to 7 fit in 3 words (degree <= 169 < 192).
	r0 := c0 ^ h0 ^ h0<<3 ^ h0<<6 ^ h0<<7
	r1 := c1 ^ h1 ^ h1<<3 ^ h1<<6 ^ h1<<7 ^ h0>>61 ^ h0>>58 ^ h0>>57
	r2 := c2&topMask ^ h2 ^ h2<<3 ^ h2<<6 ^ h2<<7 ^ h1>>61 ^ h1>>58 ^ h1>>57

	// Second fold: whatever landed at degrees 163..169 (word 2 bits
	// 35..41) folds entirely into word 0.
	t := r2 >> 35
	return Element{r0 ^ t ^ t<<3 ^ t<<6 ^ t<<7, r1, r2 & topMask}
}

// Mul returns e * f in GF(2^163).
func Mul(e, f Element) Element {
	c := mul320(e, f)
	return reduce(c[0], c[1], c[2], c[3], c[4], c[5])
}

// sqrSpread maps a byte b0..b7 to the 16-bit value with b's bits
// interleaved with zeros, i.e. the carry-less square of the byte.
var sqrSpread [256]uint16

func init() {
	for b := 0; b < 256; b++ {
		var s uint16
		for i := 0; i < 8; i++ {
			s |= uint16(b>>i&1) << (2 * i)
		}
		sqrSpread[b] = s
	}
}

// spread64 returns the 128-bit carry-less square of w (bits of w
// interleaved with zeros).
func spread64(w uint64) (hi, lo uint64) {
	lo = uint64(sqrSpread[byte(w)]) |
		uint64(sqrSpread[byte(w>>8)])<<16 |
		uint64(sqrSpread[byte(w>>16)])<<32 |
		uint64(sqrSpread[byte(w>>24)])<<48
	hi = uint64(sqrSpread[byte(w>>32)]) |
		uint64(sqrSpread[byte(w>>40)])<<16 |
		uint64(sqrSpread[byte(w>>48)])<<32 |
		uint64(sqrSpread[byte(w>>56)])<<48
	return hi, lo
}

// Sqr returns e^2. Squaring a GF(2^m) polynomial interleaves its
// coefficients with zeros, which is why hardware squarers are cheap
// relative to general multipliers.
func Sqr(e Element) Element {
	h0, l0 := spread64(e[0])
	h1, l1 := spread64(e[1])
	h2, l2 := spread64(e[2])
	return reduce(l0, h0, l1, h1, l2, h2)
}

// sqrN returns e^(2^n) by repeated squaring.
func sqrN(e Element, n int) Element {
	for i := 0; i < n; i++ {
		e = Sqr(e)
	}
	return e
}

// linTab evaluates a GF(2)-linear map on GF(2^163) by table lookup:
// entry [i][v] is the image of v·x^(4i), so the image of e is the XOR
// of one entry per nibble of e — 41 lookups for 163 bits, 15.7 KB per
// map. Repeated squaring and the half-trace are both linear.
type linTab [(M + 3) / 4][16]Element

// fill tabulates f from its images of the basis x^0..x^162.
func (t *linTab) fill(f func(Element) Element) {
	for n := 0; n < M; n++ {
		img, b := f(Element{}.SetBit(n, 1)), 1<<(n%4)
		for v := b; v < 2*b; v++ {
			t[n/4][v] = Add(t[n/4][v-b], img)
		}
	}
}

func (t *linTab) apply(e Element) Element {
	var r0, r1, r2 uint64
	for w, x := range e {
		rows := t[16*w : min(16*w+16, len(t))]
		for i := range rows {
			v := &rows[i][x&0xf]
			x >>= 4
			r0 ^= v[0]
			r1 ^= v[1]
			r2 ^= v[2]
		}
	}
	return Element{r0, r1, r2}
}

// Tables of e -> e^(2^k) for Inv's long squaring runs, and of the
// half-trace, built once at package init (about 1 ms). Each longer
// run composes the shorter tables; TestLinTablesMatchRepeatedSquaring
// pins every table to its definition.
var sqr10, sqr20, sqr40, sqr81, halfTrace linTab

func init() {
	sqr10.fill(func(e Element) Element { return sqrN(e, 10) })
	sqr20.fill(func(e Element) Element { return sqr10.apply(sqr10.apply(e)) })
	sqr40.fill(func(e Element) Element { return sqr20.apply(sqr20.apply(e)) })
	sqr81.fill(func(e Element) Element { return Sqr(sqr40.apply(sqr40.apply(e))) })
	halfTrace.fill(halfTraceByDefinition)
}

// Inv returns the multiplicative inverse of e, computed with the
// Itoh–Tsujii addition chain for m-1 = 162
// (1,2,4,5,10,20,40,80,81,162): 9 multiplications, 11 squarings and
// four table evaluations for the runs of 10, 20, 40 and 81 squarings
// (the set invsweep_test.go measured fastest within the table budget).
// Inv of the zero element returns zero (the caller is expected to
// guard; protocols in this module never invert zero).
func Inv(e Element) Element {
	b1 := e                     // e^(2^1 - 1)
	b2 := Mul(Sqr(b1), b1)      // e^(2^2 - 1)
	b4 := Mul(sqrN(b2, 2), b2)  // e^(2^4 - 1)
	b5 := Mul(Sqr(b4), b1)      // e^(2^5 - 1)
	b10 := Mul(sqrN(b5, 5), b5) // e^(2^10 - 1)
	b20 := Mul(sqr10.apply(b10), b10)
	b40 := Mul(sqr20.apply(b20), b20)
	b80 := Mul(sqr40.apply(b40), b40)
	b81 := Mul(Sqr(b80), b1)
	b162 := Mul(sqr81.apply(b81), b81) // e^(2^162 - 1)
	return Sqr(b162)                   // e^(2^163 - 2) = e^-1
}

// Div returns e / f = e * f^-1.
func Div(e, f Element) Element { return Mul(e, Inv(f)) }

// sqrtCompact maps a byte to the 4-bit compaction of its even-position
// bits — the inverse of sqrSpread restricted to one parity class.
var sqrtCompact [256]byte

// sqrtX is the constant sqrt(x) = x^(2^(m-1)); a wrong value would make
// Sqrt disagree with the repeated-squaring definition in
// TestSqrtMatchesRepeatedSquaring.
var sqrtX = Element{0xb6db6db6db6db6b0, 0x492492492492db6d, 0x492492492}

func init() {
	for b := 0; b < 256; b++ {
		var c byte
		for i := 0; i < 4; i++ {
			c |= byte(b>>(2*i)&1) << i
		}
		sqrtCompact[b] = c
	}
}

// compactEven compresses the even-position bits of w into 32 bits (the
// inverse of spread64's interleave). Odd positions are the even
// positions of w >> 1.
func compactEven(w uint64) uint64 {
	return uint64(sqrtCompact[byte(w)]) |
		uint64(sqrtCompact[byte(w>>8)])<<4 |
		uint64(sqrtCompact[byte(w>>16)])<<8 |
		uint64(sqrtCompact[byte(w>>24)])<<12 |
		uint64(sqrtCompact[byte(w>>32)])<<16 |
		uint64(sqrtCompact[byte(w>>40)])<<20 |
		uint64(sqrtCompact[byte(w>>48)])<<24 |
		uint64(sqrtCompact[byte(w>>56)])<<28
}

// Sqrt returns the square root of e, which always exists and is unique
// in a binary field. Splitting e = E(x²) + x·O(x²) into its even- and
// odd-position coefficients gives sqrt(e) = E(x) + sqrt(x)·O(x): two
// bit-compactions and one multiplication by the precomputed constant
// sqrt(x), instead of the m-1 = 162 squarings of the e^(2^(m-1))
// definition. The root is unique, so the value is identical to the
// repeated-squaring path (pinned by TestSqrtMatchesRepeatedSquaring).
func Sqrt(e Element) Element {
	even := Element{compactEven(e[0]) | compactEven(e[1])<<32, compactEven(e[2]), 0}
	odd := Element{compactEven(e[0]>>1) | compactEven(e[1]>>1)<<32, compactEven(e[2] >> 1), 0}
	return Add(even, Mul(sqrtX, odd))
}

// traceVec has bit i set iff Tr(x^i) = 1; the trace of an arbitrary
// element is then the parity of (e AND traceVec). Computed once at
// package init from the definition Tr(c) = sum c^(2^i).
var traceVec Element

func init() {
	for i := 0; i < M; i++ {
		var xi Element
		xi = xi.SetBit(i, 1)
		if traceByDefinition(xi) == 1 {
			traceVec = traceVec.SetBit(i, 1)
		}
	}
}

func traceByDefinition(e Element) uint {
	s := e
	t := e
	for i := 1; i < M; i++ {
		t = Sqr(t)
		s = Add(s, t)
	}
	// The trace lies in GF(2), so s is 0 or 1.
	return uint(s[0] & 1)
}

// Trace returns the absolute trace Tr(e) in {0, 1}.
func Trace(e Element) uint {
	and := Element{e[0] & traceVec[0], e[1] & traceVec[1], e[2] & traceVec[2]}
	return uint(and.Weight()) & 1
}

// halfTraceByDefinition is the 81-step sum the halfTrace table holds.
func halfTraceByDefinition(e Element) Element {
	h := e
	for i := 1; i <= (M-1)/2; i++ {
		e = Sqr(Sqr(e))
		h = Add(h, e)
	}
	return h
}

// HalfTrace returns H(e) = sum_{i=0}^{(m-1)/2} e^(2^(2i)). For odd m,
// if Tr(e) = 0 then z = H(e) solves z^2 + z = e; this is how the curve
// layer solves for y-coordinates (point decompression, y-recovery
// checks). If Tr(e) = 1 the equation has no solution. H is linear, so
// it is one table evaluation rather than 162 squarings.
func HalfTrace(e Element) Element { return halfTrace.apply(e) }

// Bytes returns the big-endian 21-byte encoding of e (ceil(163/8)).
func (e Element) Bytes() []byte {
	out := make([]byte, ByteLen)
	for i := 0; i < ByteLen; i++ {
		shift := uint(8 * (ByteLen - 1 - i))
		out[i] = byte(e[shift>>6] >> (shift & 63))
		// Bits straddling word boundaries.
		if shift&63 > 64-8 && shift>>6 < Words-1 {
			out[i] |= byte(e[shift>>6+1] << (64 - shift&63))
		}
	}
	return out
}

// ByteLen is the length of the canonical byte encoding of an Element.
const ByteLen = (M + 7) / 8

// FromBytes decodes a big-endian byte string (at most ByteLen bytes)
// into an Element, reducing stray high bits to canonical form.
func FromBytes(b []byte) Element {
	var e Element
	for _, c := range b {
		// e = e<<8 | c
		e[2] = e[2]<<8 | e[1]>>56
		e[1] = e[1]<<8 | e[0]>>56
		e[0] = e[0]<<8 | uint64(c)
	}
	return e.normalize()
}

// FromUint64 returns the element whose low word is w.
func FromUint64(w uint64) Element { return Element{w, 0, 0} }

// FromWords builds an element from three little-endian words,
// normalizing stray high bits.
func FromWords(w0, w1, w2 uint64) Element {
	return Element{w0, w1, w2}.normalize()
}

// String renders e as a big-endian hexadecimal string.
func (e Element) String() string {
	const hexdigits = "0123456789abcdef"
	buf := make([]byte, 0, 41)
	started := false
	for i := ByteLen*2 - 1; i >= 0; i-- {
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

// MustFromHex parses a big-endian hexadecimal string into an Element
// and panics on malformed input. It is intended for package-level
// curve constants.
func MustFromHex(s string) Element {
	var e Element
	for _, c := range s {
		var nib uint64
		switch {
		case c >= '0' && c <= '9':
			nib = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			nib = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			nib = uint64(c-'A') + 10
		default:
			panic("gf2m: invalid hex digit in constant")
		}
		e[2] = e[2]<<4 | e[1]>>60
		e[1] = e[1]<<4 | e[0]>>60
		e[0] = e[0]<<4 | nib
	}
	if e != e.normalize() {
		panic("gf2m: constant exceeds field degree")
	}
	return e
}

// MulNoReduce exposes the raw 6-word carry-less product for tests and
// for the digit-serial multiplier model's cross-checks.
func MulNoReduce(e, f Element) [6]uint64 { return mul320(e, f) }

// Reduce exposes polynomial reduction of a 6-word value for tests.
func Reduce(c [6]uint64) Element { return reduce(c[0], c[1], c[2], c[3], c[4], c[5]) }

// ShlMod returns e * x^s mod f(x) for small shift amounts 0 <= s <= 61.
// This is the per-cycle operation of the digit-serial multiplier
// (shift the accumulator by the digit size, then reduce), exposed here
// so the co-processor model and the field agree exactly.
func ShlMod(e Element, s uint) Element {
	if s == 0 {
		return e
	}
	c0 := e[0] << s
	c1 := e[1]<<s | e[0]>>(64-s)
	c2 := e[2]<<s | e[1]>>(64-s)
	c3 := e[2] >> (64 - s)
	// Specialized reduction: the overflow h = (e·x^s) >> 163 has degree
	// at most 162+61-163 = 60, so it fits one word and a single fold of
	// h·(x^7+x^6+x^3+1) — landing no higher than degree 67 — finishes
	// the job. This is the general reduce() with h[1] = h[2] = 0 and no
	// second folding round, so the result is bit-identical.
	h := c2>>35 | c3<<29
	return Element{
		c0 ^ h ^ h<<3 ^ h<<6 ^ h<<7,
		c1 ^ h>>61 ^ h>>58 ^ h>>57,
		c2 & topMask,
	}
}

package gf2m

import (
	"math/bits"
	"testing"

	"medsec/internal/rng"
)

// Multiplier-configuration sweep. The production multiplier pins three
// choices:
//
//   - a multiply-based carry-less word product (clmul64: four bit
//     classes, 16 integer multiplies, top-nibble correction) over the
//     table-driven windowed combs with 2-, 4- and 8-bit windows;
//   - one level of 3-word Karatsuba (6 word products) over schoolbook
//     (9 word products, 5 of them with a 35-bit top-word operand that
//     can skip the correction) — deeper recursion is structurally
//     unavailable at 163 bits: the operands are only 3 words, so the
//     next level would split single words;
//   - every Karatsuba product through the one corrected kernel, over an
//     uncorrected kernel for the top-word product D22 (both top words
//     are at most 35 bits, so its correction is always zero).
//
// The variants below re-implement the rejected configurations so the
// crossover stays measured, not asserted. Medians of 12 interleaved
// runs (go test -bench MulSweep -cpu 1 -count 12) on a shared 2-vCPU
// Intel Xeon VM, whose run-to-run noise is ±20%:
//
//	karatsuba-mul (pinned)   ~196 ns/op
//	karatsuba-top60          ~199 ns/op  (skipping D22's correction
//	                                      saves ~2% of the work, lost
//	                                      in noise; not worth a second
//	                                      kernel body)
//	schoolbook-mul           ~251 ns/op  (9 vs 6 word products, even
//	                                      with 5 of them uncorrected)
//	karatsuba-w4             ~403 ns/op  (the comb this kernel replaced:
//	                                      6 table builds, ~90 lookups)
//	schoolbook-w4            ~421 ns/op
//	karatsuba-w2             ~465 ns/op  (2x lookups dominate)
//	karatsuba-w8            ~2320 ns/op  (127 shift/XOR table builds per
//	                                      operand word swamp the halved
//	                                      lookups at one-shot use)
//
// Correctness of every variant is pinned against the production path
// in TestMulSweepVariantsAgree, so the benchmark numbers compare
// equal-output implementations.

// --- multiply-based kernel without the top-nibble correction ---

// clmul60 is clmul64 for x < 2^60, where no correction is needed: the
// same 16 class products, without the top-nibble split.
func clmul60(x, y uint64) (hi, lo uint64) {
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
	lo = (l00^l13^l22^l31)&class0 | (l01^l10^l23^l32)&class1 |
		(l02^l11^l20^l33)&class2 | (l03^l12^l21^l30)&class3
	hi = (h00^h13^h22^h31)&class0 | (h01^h10^h23^h32)&class1 |
		(h02^h11^h20^h33)&class2 | (h03^h12^h21^h30)&class3
	return hi, lo
}

// mulKaratsubaTop60 is mul320 with D22 through clmul60.
func mulKaratsubaTop60(a, b Element) [6]uint64 {
	h0, l0 := clmul64(a[0], b[0])
	h1, l1 := clmul64(a[1], b[1])
	h2, l2 := clmul60(a[2], b[2])
	h01, l01 := clmul64(a[0]^a[1], b[0]^b[1])
	h02, l02 := clmul64(a[0]^a[2], b[0]^b[2])
	h12, l12 := clmul64(a[1]^a[2], b[1]^b[2])
	return karatsubaCombine(h0, l0, h1, l1, h2, l2, h01, l01, h02, l02, h12, l12)
}

// mulSchoolbook is the 9-product comparison point. Each product with a
// top word puts that 35-bit word in clmul60's x slot.
func mulSchoolbook(a, b Element) [6]uint64 {
	var out [6]uint64
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			hi, lo := clmul64(a[i], b[j])
			out[i+j] ^= lo
			out[i+j+1] ^= hi
		}
	}
	for j := 0; j < 3; j++ {
		hi, lo := clmul60(a[2], b[j])
		out[2+j] ^= lo
		out[3+j] ^= hi
	}
	for i := 0; i < 2; i++ {
		hi, lo := clmul60(b[2], a[i])
		out[i+2] ^= lo
		out[i+3] ^= hi
	}
	return out
}

// --- 4-bit window comb (the previous production kernel) ---

// wordTab is the 4-bit windowed comb table of one 64-bit operand:
// entry i holds the truncated carry-less product i·x for the sixteen
// 4-bit window values.
type wordTab [16]uint64

func combTab(x uint64) wordTab {
	var u wordTab
	u[1] = x
	for i := 2; i < 16; i += 2 {
		u[i] = u[i/2] << 1
		u[i+1] = u[i] ^ x
	}
	return u
}

func clmulTab(u *wordTab, x, y uint64) (hi, lo uint64) {
	lo = u[y&0xf]
	for i := uint(4); i < 64; i += 4 {
		v := u[(y>>i)&0xf]
		lo ^= v << i
		hi ^= v >> (64 - i)
	}
	// The table entries truncate x<<1, x<<2, x<<3 to 64 bits. For each
	// window bit k in {1,2,3} the lost high part is (x >> (64-k)),
	// contributed at every window position whose k-th bit of y is set.
	const comb = 0x1111111111111111
	for k := uint(1); k < 4; k++ {
		z := x >> (64 - k)
		w := (y >> k) & comb
		t := w & (-(z & 1))
		t ^= (w << 1) & (-(z >> 1 & 1))
		t ^= (w << 2) & (-(z >> 2 & 1))
		hi ^= t
	}
	return hi, lo
}

// clmulTabTop is clmulTab for the top-word product of two canonical
// elements: y carries at most 35 bits and x has no bits 61..63, so the
// upper windows and the truncation correction vanish.
func clmulTabTop(u *wordTab, y uint64) (hi, lo uint64) {
	lo = u[y&0xf]
	for i := uint(4); i < 36; i += 4 {
		v := u[(y>>i)&0xf]
		lo ^= v << i
		hi ^= v >> (64 - i)
	}
	return hi, lo
}

// mulKaratsubaW4 is the previous production mul320: six comb tables of
// the left operand, then the Karatsuba word products over them.
func mulKaratsubaW4(a, b Element) [6]uint64 {
	x01, x02, x12 := a[0]^a[1], a[0]^a[2], a[1]^a[2]
	t0, t1, t2 := combTab(a[0]), combTab(a[1]), combTab(a[2])
	t01, t02, t12 := combTab(x01), combTab(x02), combTab(x12)
	h0, l0 := clmulTab(&t0, a[0], b[0])
	h1, l1 := clmulTab(&t1, a[1], b[1])
	h2, l2 := clmulTabTop(&t2, b[2])
	h01, l01 := clmulTab(&t01, x01, b[0]^b[1])
	h02, l02 := clmulTab(&t02, x02, b[0]^b[2])
	h12, l12 := clmulTab(&t12, x12, b[1]^b[2])
	return karatsubaCombine(h0, l0, h1, l1, h2, l2, h01, l01, h02, l02, h12, l12)
}

// mulSchoolbookW4 is schoolbook over the 4-bit comb, sharing one table
// per left-operand word across its row.
func mulSchoolbookW4(a, b Element) [6]uint64 {
	var out [6]uint64
	for i := 0; i < 3; i++ {
		u := combTab(a[i])
		for j := 0; j < 3; j++ {
			hi, lo := clmulTab(&u, a[i], b[j])
			out[i+j] ^= lo
			out[i+j+1] ^= hi
		}
	}
	return out
}

// --- 2-bit window comb ---

type wordTab2 [4]uint64

func combTab2(x uint64) wordTab2 {
	var u wordTab2
	u[1] = x
	u[2] = x << 1
	u[3] = u[2] ^ x
	return u
}

func clmulTab2(u *wordTab2, x, y uint64) (hi, lo uint64) {
	lo = u[y&0x3]
	for i := uint(2); i < 64; i += 2 {
		v := u[(y>>i)&0x3]
		lo ^= v << i
		hi ^= v >> (64 - i)
	}
	// Truncation correction: the table's x<<1 loses bit 63 of x,
	// contributed wherever bit 1 of a window of y is set.
	const comb = 0x5555555555555555
	z := x >> 63
	hi ^= ((y >> 1) & comb) & (-z)
	return hi, lo
}

// --- 8-bit window comb ---

type wordTab8 [256]uint64

func combTab8(x uint64) wordTab8 {
	var u wordTab8
	u[1] = x
	for i := 2; i < 256; i += 2 {
		u[i] = u[i/2] << 1
		u[i+1] = u[i] ^ x
	}
	return u
}

func clmulTab8(u *wordTab8, x, y uint64) (hi, lo uint64) {
	lo = u[y&0xff]
	for i := uint(8); i < 64; i += 8 {
		v := u[(y>>i)&0xff]
		lo ^= v << i
		hi ^= v >> (64 - i)
	}
	// Truncation correction for window bits 1..7.
	const comb = 0x0101010101010101
	for k := uint(1); k < 8; k++ {
		z := x >> (64 - k)
		w := (y >> k) & comb
		var t uint64
		for j := uint(0); j < 7; j++ {
			t ^= (w << j) & (-(z >> j & 1))
		}
		hi ^= t
	}
	return hi, lo
}

// mulKaratsubaW builds the 6-word product with the production Karatsuba
// structure over a pluggable word multiplier.
func mulKaratsubaW(a, b Element, clmul func(x, y uint64) (hi, lo uint64)) [6]uint64 {
	h0, l0 := clmul(a[0], b[0])
	h1, l1 := clmul(a[1], b[1])
	h2, l2 := clmul(a[2], b[2])
	h01, l01 := clmul(a[0]^a[1], b[0]^b[1])
	h02, l02 := clmul(a[0]^a[2], b[0]^b[2])
	h12, l12 := clmul(a[1]^a[2], b[1]^b[2])
	return karatsubaCombine(h0, l0, h1, l1, h2, l2, h01, l01, h02, l02, h12, l12)
}

// karatsubaCombine recombines the six Karatsuba word products as in
// mul320.
func karatsubaCombine(h0, l0, h1, l1, h2, l2, h01, l01, h02, l02, h12, l12 uint64) [6]uint64 {
	m1l, m1h := l01^l0^l1, h01^h0^h1
	m2l, m2h := l02^l0^l1^l2, h02^h0^h1^h2
	m3l, m3h := l12^l1^l2, h12^h1^h2
	return [6]uint64{l0, h0 ^ m1l, m1h ^ m2l, m2h ^ m3l, m3h ^ l2, h2}
}

func clmul64W2(x, y uint64) (uint64, uint64) {
	u := combTab2(x)
	return clmulTab2(&u, x, y)
}

func clmul64W8(x, y uint64) (uint64, uint64) {
	u := combTab8(x)
	return clmulTab8(&u, x, y)
}

func TestMulSweepVariantsAgree(t *testing.T) {
	d := rng.NewDRBG(0x5eed)
	for i := 0; i < 2000; i++ {
		a := FromWords(d.Uint64(), d.Uint64(), d.Uint64())
		b := FromWords(d.Uint64(), d.Uint64(), d.Uint64())
		want := Mul(a, b)
		for name, raw := range map[string][6]uint64{
			"schoolbook-mul": mulSchoolbook(a, b),
			"karatsuba-w4":   mulKaratsubaW4(a, b),
			"karatsuba-w2":   mulKaratsubaW(a, b, clmul64W2),
			"karatsuba-w8":   mulKaratsubaW(a, b, clmul64W8),
			"schoolbook-w4":  mulSchoolbookW4(a, b),
		} {
			if got := Reduce(raw); got != want {
				t.Fatalf("%s: Mul(%v, %v) = %v, want %v", name, a, b, got, want)
			}
		}
	}
}

func BenchmarkMulSweep(b *testing.B) {
	for _, v := range []struct {
		name string
		mul  func(a, b Element) [6]uint64
	}{
		{"karatsuba-mul", mul320},
		{"karatsuba-top60", mulKaratsubaTop60},
		{"schoolbook-mul", mulSchoolbook},
		{"karatsuba-w4", mulKaratsubaW4},
		{"karatsuba-w2", func(a, b Element) [6]uint64 { return mulKaratsubaW(a, b, clmul64W2) }},
		{"karatsuba-w8", func(a, b Element) [6]uint64 { return mulKaratsubaW(a, b, clmul64W8) }},
		{"schoolbook-w4", mulSchoolbookW4},
	} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink = Reduce(v.mul(benchA, benchB))
			}
		})
	}
}

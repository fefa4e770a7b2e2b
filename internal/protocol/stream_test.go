package protocol

import (
	"testing"

	"medsec/internal/ec"
	"medsec/internal/modn"
	"medsec/internal/rng"
)

// TestSoftwareMultiplierConsumesLadderStream pins the randomness
// contract every later nonce, challenge and link draw depends on:
// after each SoftwareMultiplier call the shared source must stand
// exactly where the protected ladder with randomized projective
// coordinates would have left it, on both curves, for the generator
// and for other points, and through both entry points.
func TestSoftwareMultiplierConsumesLadderStream(t *testing.T) {
	for _, curve := range []*ec.Curve{ec.K163(), ec.B163()} {
		mulSrc := rng.NewDRBG(21).Uint64
		refSrc := rng.NewDRBG(21).Uint64
		mul := &SoftwareMultiplier{Curve: curve, Rand: mulSrc}
		opt := ec.LadderOptions{Rand: refSrc}
		pts := rng.NewDRBG(22).Uint64
		for i := 0; i < 6; i++ {
			k := curve.Order.RandNonZero(pts)
			p := curve.Generator()
			if i%2 == 1 {
				p = curve.RandomPoint(pts)
			}
			got, err := mul.ScalarMul(k, p)
			if err != nil {
				t.Fatal(err)
			}
			want, err := curve.ScalarMulLadder(k, p, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("%s: ScalarMul differs from the ladder", curve.Name)
			}
			if a, b := mulSrc(), refSrc(); a != b {
				t.Fatalf("%s: stream position after ScalarMul %d differs: %x vs %x", curve.Name, i, a, b)
			}

			x, err := mul.XOnlyMul(k, p)
			if err != nil {
				t.Fatal(err)
			}
			wantX, ok := curve.XOnlyScalarMul(k, p.X, opt)
			if !ok || !x.Equal(wantX) {
				t.Fatalf("%s: XOnlyMul differs from the ladder", curve.Name)
			}
			if a, b := mulSrc(), refSrc(); a != b {
				t.Fatalf("%s: stream position after XOnlyMul %d differs: %x vs %x", curve.Name, i, a, b)
			}
		}
		// Rejected inputs leave the stream where the ladder leaves it.
		if _, err := mul.ScalarMul(curve.Order.N(), curve.Generator()); err == nil {
			t.Fatalf("%s: unreduced scalar accepted", curve.Name)
		}
		if _, err := curve.ScalarMulLadder(curve.Order.N(), curve.Generator(), opt); err == nil {
			t.Fatalf("%s: ladder accepted an unreduced scalar", curve.Name)
		}
		if _, err := mul.XOnlyMul(modn.Zero(), curve.Generator()); err == nil {
			t.Fatalf("%s: x-only of infinity accepted", curve.Name)
		}
		curve.XOnlyScalarMul(modn.Zero(), curve.Gx, opt)
		if a, b := mulSrc(), refSrc(); a != b {
			t.Fatalf("%s: stream position after rejected inputs differs", curve.Name)
		}
	}
}

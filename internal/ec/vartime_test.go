package ec

import (
	"math/rand"
	"sync"
	"testing"
	"unsafe"

	"medsec/internal/gf2m"
	"medsec/internal/modn"
)

// countingSource is a deterministic randomness source that counts its
// draws, so two runs can be compared for stream position.
type countingSource struct {
	state, draws uint64
}

func (s *countingSource) next() uint64 {
	s.draws++
	s.state = s.state*6364136223846793005 + 1442695040888963407
	return s.state
}

// checkSameAsLadder requires ScalarMulVartime and XOnlyScalarMulVartime
// to equal the ladder in point, error, x-coordinate, ok flag and
// number of randomness draws.
func checkSameAsLadder(t *testing.T, c *Curve, k modn.Scalar, p Point) {
	t.Helper()
	fast, ref := &countingSource{state: 7}, &countingSource{state: 7}
	got, gotErr := c.ScalarMulVartime(k, p, LadderOptions{Rand: fast.next})
	want, wantErr := c.ScalarMulLadder(k, p, LadderOptions{Rand: ref.next})
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s k=%v p=%v: error %v, ladder %v", c.Name, k, p, gotErr, wantErr)
	}
	if !got.Equal(want) {
		t.Fatalf("%s k=%v p=%v: point %v, ladder %v", c.Name, k, p, got, want)
	}
	gx, gok := c.XOnlyScalarMulVartime(k, p, LadderOptions{Rand: fast.next})
	wx, wok := c.XOnlyScalarMul(k, p.X, LadderOptions{Rand: ref.next})
	if gok != wok || !gx.Equal(wx) {
		t.Fatalf("%s k=%v p=%v: x-only (%v, %v), ladder (%v, %v)", c.Name, k, p, gx, gok, wx, wok)
	}
	if fast.draws != ref.draws {
		t.Fatalf("%s k=%v p=%v: %d draws, ladder %d", c.Name, k, p, fast.draws, ref.draws)
	}
}

// TestScalarMulVartimeMatchesLadder covers every route on both curves:
// the generator table, the K-163 τNAF and the B-163 ladder fallback.
func TestScalarMulVartimeMatchesLadder(t *testing.T) {
	for _, c := range curvesUnderTest() {
		r := rand.New(rand.NewSource(4))
		for i := 0; i < 8; i++ {
			k := c.Order.Rand(r.Uint64)
			checkSameAsLadder(t, c, k, c.Generator())
			checkSameAsLadder(t, c, k, c.RandomPoint(r.Uint64))
		}
	}
}

// TestScalarMulVartimeEdgeScalars pins the scalars where the routes'
// exceptional cases live (k·P = O, ±P, ±2P) and the unreduced ones the
// ladder rejects or truncates.
func TestScalarMulVartimeEdgeScalars(t *testing.T) {
	for _, c := range curvesUnderTest() {
		n := c.Order.N()
		sub := func(v uint64) modn.Scalar { return c.Order.Sub(modn.Zero(), modn.FromUint64(v)) }
		nPlus1 := n
		nPlus1[0]++
		ks := []modn.Scalar{
			modn.Zero(), modn.One(), modn.FromUint64(2), sub(2), sub(1),
			n, nPlus1, {^uint64(0), ^uint64(0), 1<<35 - 1}, {0, 0, 1 << 35}, {1, 2, 3, 4},
		}
		r := rand.New(rand.NewSource(8))
		pts := []Point{c.Generator(), c.RandomPoint(r.Uint64)}
		for _, k := range ks {
			for _, p := range pts {
				checkSameAsLadder(t, c, k, p)
			}
		}
	}
}

// TestScalarMulVartimeOffSubgroupUsesLadder feeds points the fast
// routes must not take: the non-trivial coset, the order-2 point,
// off-curve points (including one whose x lifts), O and a perturbed
// generator. Results must still equal the ladder's, garbage included.
func TestScalarMulVartimeOffSubgroupUsesLadder(t *testing.T) {
	for _, c := range curvesUnderTest() {
		r := rand.New(rand.NewSource(10))
		var pts []Point
		for _, p := range curvePoints(c, r, 16) {
			pts = append(pts, p, Point{X: p.X, Y: gf2m.Add(p.Y, gf2m.One())})
		}
		g := c.Generator()
		pts = append(pts,
			Point{X: gf2m.Zero(), Y: gf2m.Sqrt(c.B)},
			Point{X: g.X, Y: gf2m.Add(g.Y, gf2m.One())},
			Point{X: gf2m.FromWords(r.Uint64(), r.Uint64(), r.Uint64()), Y: gf2m.One()},
			Infinity(),
			Point{X: g.X, Y: g.Y, Inf: true},
		)
		for _, p := range pts {
			checkSameAsLadder(t, c, c.Order.Rand(r.Uint64), p)
		}
	}
}

// TestScalarMulVartimeAllocs pins the fast routes at zero allocations:
// the partial reduction and recoding use fixed-width words, never
// math/big.
func TestScalarMulVartimeAllocs(t *testing.T) {
	for _, c := range curvesUnderTest() {
		r := rand.New(rand.NewSource(11))
		k := c.Order.RandNonZero(r.Uint64)
		p := c.RandomPoint(r.Uint64)
		opt := LadderOptions{Rand: r.Uint64}
		for name, fn := range map[string]func(){
			"generator": func() { c.ScalarMulVartime(k, c.Generator(), opt) },
			"variable":  func() { c.ScalarMulVartime(k, p, opt) },
			"x-only":    func() { c.XOnlyScalarMulVartime(k, p, opt) },
		} {
			if n := testing.AllocsPerRun(20, fn); n != 0 {
				t.Fatalf("%s %s: %v allocations per call, want 0", c.Name, name, n)
			}
		}
	}
}

// TestGeneratorTableSharedAndBounded checks that the fixed-base table
// is built once per curve parameters, not per *Curve value, and stays
// within its memory budget.
func TestGeneratorTableSharedAndBounded(t *testing.T) {
	a, b := K163(), K163()
	fa, fb := lookupFast(a), lookupFast(b)
	if fa == nil || fa != fb {
		t.Fatal("two K163() values do not share their precomputation")
	}
	if lookupFast(B163()) == fa {
		t.Fatal("B-163 shares K-163's precomputation")
	}
	if lookupFast(B163()).tnaf != nil {
		t.Fatal("B-163 has τNAF constants")
	}
	tab := fa.generatorTable(a)
	if &tab[0] != &fb.generatorTable(b)[0] {
		t.Fatal("generator table rebuilt")
	}
	if size := len(tab) * int(unsafe.Sizeof(tab[0])); size > 100<<10 {
		t.Fatalf("generator table is %d bytes, budget 100 KiB", size)
	}
	// Spot-check rows against the ladder: entry (i, j) is j·2^(wi)·G.
	for _, ij := range [][2]int{{0, 1}, {0, genRowLen}, {genRows / 2, 17}, {genRows - 1, 1}} {
		i, j := ij[0], ij[1]
		var k modn.Scalar
		k[(i*genWindow)/64] = uint64(j) << ((i * genWindow) % 64)
		if (i*genWindow)%64 > 64-genWindow {
			k[(i*genWindow)/64+1] = uint64(j) >> (64 - (i*genWindow)%64)
		}
		k = a.Order.Reduce(k)
		want, err := a.ScalarMulLadder(k, a.Generator(), LadderOptions{})
		if err != nil {
			t.Fatal(err)
		}
		e := tab[i*genRowLen+j-1]
		if !e.x.Equal(want.X) || !e.y.Equal(want.Y) {
			t.Fatalf("table entry (%d, %d) is not j·2^(wi)·G", i, j)
		}
	}
}

// TestGeneratorTableConcurrentBuild races first uses of one curve's
// table from several goroutines, as fleet workers do: every caller
// must get the same fully built table.
func TestGeneratorTableConcurrentBuild(t *testing.T) {
	f := newFastCurve(K163())
	const workers = 4
	tabs := make([][]affineXY, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tabs[i] = f.generatorTable(K163())
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if &tabs[i][0] != &tabs[0][0] {
			t.Fatal("concurrent first uses built more than one table")
		}
	}
	if g := K163().Generator(); !tabs[0][0].x.Equal(g.X) || !tabs[0][0].y.Equal(g.Y) {
		t.Fatal("table entry (0, 1) is not G")
	}
}

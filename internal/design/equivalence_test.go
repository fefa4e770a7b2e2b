// Equivalence suite: design.Build must reproduce, bit for bit, the
// stacks the CLIs and examples used to wire by hand. Each test pins
// the pre-refactor behaviour — a golden trace hash for the lab
// targets, the exact linklab grid rows, the exact pacemaker and
// bansensor session-energy lines — so a drift anywhere in the design
// layer (seeds, power config, ARQ policy, radio pricing) fails here
// before it silently re-rolls every published table.
package design_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"medsec/internal/coproc"
	"medsec/internal/design"
	"medsec/internal/ec"
	"medsec/internal/linksim"
	"medsec/internal/power"
	"medsec/internal/protocol"
	"medsec/internal/rng"
	"medsec/internal/sca"
	"medsec/internal/trace"
)

// traceHash is FNV-1a over the little-endian float64 bits of every
// sample of every trace, in order.
func traceHash(s *trace.Set) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, tr := range s.Traces {
		for _, v := range tr.Samples {
			u := math.Float64bits(v)
			for i := 0; i < 8; i++ {
				b[i] = byte(u >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// The scalab/dpalab/benchlab target mapping: a design point with
// bench noise, x-only traces and the historical TRNG stream must
// acquire the exact traces the hand-wired sca.NewTarget did. The
// hashes are pinned so the legacy reference and the design path
// cannot drift together unnoticed.
func TestTargetTraceEquivalence(t *testing.T) {
	golden := map[bool]uint64{
		true:  0xb3795160f7e368cd,
		false: 0xad70d47037b89bb4,
	}
	for _, rpc := range []bool{true, false} {
		// Legacy construction, verbatim from the pre-refactor CLIs.
		curve := ec.K163()
		key := sca.AlgorithmOneScalar(curve, rng.NewDRBG(1).Uint64)
		lab := power.ProtectedChip(1)
		lab.NoiseSigma = sca.LabNoiseSigma
		legacy := sca.NewTarget(curve, key, coproc.ProgramOptions{RPC: rpc, XOnly: true},
			coproc.DefaultTiming(), lab, 777)
		lc, err := legacy.AcquireCampaign(12, 160, 157, rng.NewDRBG(9).Uint64)
		if err != nil {
			t.Fatal(err)
		}

		// Design construction.
		p := design.Defaults()
		p.RPC = rpc
		p.XOnly = true
		p.TRNGSeed = 777
		p.NoiseSigma = design.LabNoiseSigma
		st, err := p.Build()
		if err != nil {
			t.Fatal(err)
		}
		tgt, err := st.Target(st.DeviceKey(1))
		if err != nil {
			t.Fatal(err)
		}
		dc, err := tgt.AcquireCampaign(12, 160, 157, rng.NewDRBG(9).Uint64)
		if err != nil {
			t.Fatal(err)
		}

		lh, dh := traceHash(lc.Set), traceHash(dc.Set)
		if lh != dh {
			t.Errorf("rpc=%v: design traces (%#x) != legacy traces (%#x)", rpc, dh, lh)
		}
		if dh != golden[rpc] {
			t.Errorf("rpc=%v: trace hash %#x != pinned golden %#x", rpc, dh, golden[rpc])
		}
	}
}

// The linklab default sweep at -reps 5 must render the exact grid
// rows the pre-refactor link wiring produced.
func TestLinklabGridRowEquivalence(t *testing.T) {
	pt := design.Defaults()
	pt.Channel = design.ChannelIID
	rep, err := linksim.Run(linksim.GridConfig{
		LossRates: []float64{0, 0.1, 0.3, 0.5},
		Distances: []float64{0.5, 2},
		Reps:      5,
		Point:     pt,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"   0.000     0.5    100.0%        0        0        63.63        95.64  -",
		"   0.100     0.5    100.0%        0        2        67.07       100.36  -",
		"   0.300     0.5    100.0%        6       12       132.86       196.24  -",
		"   0.500     0.5     60.0%        7        9       101.48       146.30  link-exhausted:2 ",
		"   0.000     2.0    100.0%        0        0        63.83        95.96  -",
		"   0.100     2.0    100.0%        1        3        76.00       112.65  -",
		"   0.300     2.0    100.0%        3        5        88.48       130.92  -",
		"   0.500     2.0     20.0%        9       11       138.11       199.90  link-exhausted:4 ",
	}
	got := strings.Split(strings.TrimRight(rep.Render(), "\n"), "\n")[1:] // drop header
	if len(got) != len(want) {
		t.Fatalf("grid rows = %d, want %d:\n%s", len(got), len(want), rep.Render())
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d drifted:\n got %q\nwant %q", i, got[i], want[i])
		}
	}
	// The rows round to 2 decimals; the exact bits of each cell's
	// means (math.Float64bits of MeanPhyJ, MeanLedgerJ) also pin the
	// float association order of the session price.
	wantBits := [][2]uint64{
		{0x3f19125bde5e55dd, 0x3f10ae569da41ddf},
		{0x3f1a4f45654a69aa, 0x3f11954eea477ebe},
		{0x3f29b8c4725755bd, 0x3f216a1244df83b8},
		{0x3f232d00ae998d87, 0x3f1a9a7f5781fcb0},
		{0x3f19277f8704fda7, 0x3f10bb6cb0b5f375},
		{0x3f1d87b62671f695, 0x3f13ec95c5c79b70},
		{0x3f2128d55fe6131e, 0x3f173196993db7f4},
		{0x3f2a335eb17924d3, 0x3f221a466bb6eab2},
	}
	for i, c := range rep.Cells {
		got := [2]uint64{math.Float64bits(c.MeanPhyJ), math.Float64bits(c.MeanLedgerJ)}
		if got != wantBits[i] {
			t.Errorf("cell %d (loss %v, dist %v): bits %#x, want %#x", i, c.Loss, c.Distance, got, wantBits[i])
		}
	}
}

// The pacemaker example's honest-session line: same chip seed, same
// party streams, same radio pricing — the exact published string.
func TestPacemakerSessionEquivalence(t *testing.T) {
	pt := design.Defaults()
	pt.Seed = 2026
	pt.TRNGSeed = 2026
	st, err := pt.Build()
	if err != nil {
		t.Fatal(err)
	}
	chip, err := st.Chip()
	if err != nil {
		t.Fatal(err)
	}
	src := rng.NewDRBG(99).Uint64
	mul := &protocol.SoftwareMultiplier{Curve: st.Curve, Rand: src}
	rdr, err := protocol.NewReader(st.Curve, mul, src)
	if err != nil {
		t.Fatal(err)
	}
	tag, err := protocol.NewTag(st.Curve, chip, src, rdr.Pub)
	if err != nil {
		t.Fatal(err)
	}
	rdr.Register(tag.Pub)
	res, err := protocol.RunMutualAuth(tag, rdr, true, false)
	if err != nil {
		t.Fatal(err)
	}
	sessionJ := st.Radio.LedgerEnergy(res.DeviceLedger, st.Point.DistanceM, st.Costs)
	got := fmt.Sprintf("device: %d PMs, %d bits TX -> %.1f uJ per session",
		res.DeviceLedger.PointMuls, res.DeviceLedger.TxBits, sessionJ*1e6)
	const want = "device: 4 PMs, 520 bits TX -> 63.7 uJ per session"
	if got != want {
		t.Fatalf("pacemaker session line drifted:\n got %q\nwant %q", got, want)
	}
}

// The bansensor example's morning-round row for the first sensor:
// chip seed 1000, tag stream 2000, first registration, one sealed
// telemetry record — the exact published energies.
func TestBansensorSessionEquivalence(t *testing.T) {
	base := design.Defaults().MustBuild()
	src := rng.NewDRBG(555).Uint64
	serverMul := &protocol.SoftwareMultiplier{Curve: base.Curve, Rand: src}
	server, err := protocol.NewReader(base.Curve, serverMul, src)
	if err != nil {
		t.Fatal(err)
	}
	p := design.Defaults()
	p.Seed = 1000
	p.TRNGSeed = 1000
	st, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	chip, err := st.Chip()
	if err != nil {
		t.Fatal(err)
	}
	tag, err := protocol.NewTag(base.Curve, chip, rng.NewDRBG(2000).Uint64, server.Pub)
	if err != nil {
		t.Fatal(err)
	}
	server.Register(tag.Pub)
	chip.ResetMeters()

	tag.Ledger = protocol.Ledger{}
	res, err := protocol.RunMutualAuth(tag, server, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("session aborted at %s", res.AbortStage)
	}
	var nonce [16]byte
	copy(nonce[:], "ecg-patch")
	led := res.DeviceLedger
	if _, err := protocol.Telemetry(res.SessionKey, nonce, []byte("HR=072;QRS=96ms"), &led); err != nil {
		t.Fatal(err)
	}
	e := base.Radio.LedgerEnergy(led, base.Point.DistanceM, base.Costs)
	got := fmt.Sprintf("%d %d %.1f %.1f", led.PointMuls, led.TxBits, e*1e6, chip.Total.EnergyJ*1e6)
	const want = "4 768 76.1 20.6"
	if got != want {
		t.Fatalf("bansensor ecg-patch row drifted: got %q, want %q (PMs, TxBits, session uJ, chip uJ)", got, want)
	}
}

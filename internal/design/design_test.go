package design

import (
	"math"
	"strings"
	"testing"

	"medsec/internal/area"
	"medsec/internal/link"
	"medsec/internal/power"
)

// The default point IS the paper's prototype: its power configuration
// must equal power.ProtectedChip bit for bit, or every golden output
// in the repo shifts.
func TestDefaultsMatchProtectedChip(t *testing.T) {
	st := Defaults().MustBuild()
	if got, want := st.Power, power.ProtectedChip(1); got != want {
		t.Fatalf("Defaults power config drifted from ProtectedChip(1):\n got %+v\nwant %+v", got, want)
	}
	if st.Curve.Name != "K-163" {
		t.Fatalf("default curve = %s, want K-163", st.Curve.Name)
	}
	if st.Timing.DigitSize != DefaultDigitSize {
		t.Fatalf("default digit = %d", st.Timing.DigitSize)
	}
}

// The hoisted flag defaults must agree with the packages they mirror;
// when link or power change their defaults this test points at the
// constant to update.
func TestDefaultsAgreeWithLayerPackages(t *testing.T) {
	arq := link.DefaultARQ()
	if DefaultARQMaxTries != arq.MaxTries || DefaultARQRetryBudget != arq.RetryBudget {
		t.Fatalf("ARQ defaults drifted: design says tries=%d budget=%d, link says tries=%d budget=%d",
			DefaultARQMaxTries, DefaultARQRetryBudget, arq.MaxTries, arq.RetryBudget)
	}
	st := Defaults().MustBuild()
	want := arq
	want.MaxTries, want.RetryBudget = DefaultARQMaxTries, DefaultARQRetryBudget
	if st.ARQ != want {
		t.Fatalf("built ARQ %+v != link default %+v", st.ARQ, want)
	}
	if DefaultClockHz != power.DefaultClockHz {
		t.Fatalf("clock constant drifted")
	}
}

func TestValidationNamesOffendingKnob(t *testing.T) {
	cases := []struct {
		mut  func(*Point)
		knob string
	}{
		{func(p *Point) { p.Channel = "plasma" }, "Channel"},
		{func(p *Point) { p.Channel = ChannelIID; p.Loss = 2 }, "Loss"},
		{func(p *Point) { p.Loss = 0.1 }, "Loss"}, // loss on a perfect channel
		{func(p *Point) { p.DistanceM = 0 }, "DistanceM"},
		{func(p *Point) { p.ARQMaxTries = 0 }, "ARQMaxTries"},
		{func(p *Point) { p.Curve = "P-256" }, "Curve"},
		{func(p *Point) { p.Microcode = "naf" }, "Microcode"},
		{func(p *Point) { p.DigitSize = 0 }, "DigitSize"},
		{func(p *Point) { p.DigitSize = 62 }, "DigitSize"},
		{func(p *Point) { p.ClockHz = 0 }, "ClockHz"},
		{func(p *Point) { p.VddV = -1 }, "VddV"},
		{func(p *Point) { p.Logic = "TTL" }, "Logic"},
		{func(p *Point) { p.ResidualImbalance = -0.1 }, "ResidualImbalance"},
		{func(p *Point) { p.NoiseSigma = -1 }, "NoiseSigma"},
		{func(p *Point) { p.Battery = "potato" }, "Battery"},
	}
	for _, tc := range cases {
		p := Defaults()
		tc.mut(&p)
		_, err := p.Build()
		if err == nil {
			t.Errorf("knob %s: bad point accepted", tc.knob)
			continue
		}
		if !strings.Contains(err.Error(), tc.knob) {
			t.Errorf("knob %s: error %q does not name it", tc.knob, err)
		}
	}
}

func TestChannelMapping(t *testing.T) {
	p := Defaults()
	p.Channel = ChannelIID
	p.Loss = 0.3
	if got, want := p.MustBuild().Channel, link.Lossy(0.3); got != want {
		t.Fatalf("iid channel = %+v, want %+v", got, want)
	}
	p.Channel = ChannelBursty
	if got, want := p.MustBuild().Channel, link.Bursty(0.3); got != want {
		t.Fatalf("bursty channel = %+v, want %+v", got, want)
	}
	if got := Defaults().MustBuild().Channel; got != link.Lossless() {
		t.Fatalf("perfect channel = %+v", got)
	}
}

// CMOS area must equal the historical flat estimate; protected logic
// styles scale only the datapath.
func TestAreaEstimate(t *testing.T) {
	g := area.DefaultGateModel()
	for _, d := range []int{1, 4, 16} {
		p := Defaults()
		p.DigitSize = d
		st := p.MustBuild()
		if got, want := st.Area.TotalGE(), g.ECCProcessorGE(d); math.Abs(got-want) > 1e-9 {
			t.Fatalf("d=%d CMOS area %f != ECCProcessorGE %f", d, got, want)
		}
	}
	p := Defaults()
	p.Logic = "WDDL"
	st := p.MustBuild()
	want := 3*(g.RegFileGE+g.MALUGE(4)) + g.ControlGE
	if math.Abs(st.Area.TotalGE()-want) > 1e-9 {
		t.Fatalf("WDDL area %f, want %f", st.Area.TotalGE(), want)
	}
	if st.Area.ControlGE != g.ControlGE {
		t.Fatalf("control block must not pay the style factor")
	}
}

func TestChipRejectsDoubleAndAdd(t *testing.T) {
	p := Defaults()
	p.Microcode = MicrocodeDoubleAndAdd
	st := p.MustBuild()
	if _, err := st.Chip(); err == nil || !strings.Contains(err.Error(), "Microcode") {
		t.Fatalf("chip on double-and-add: err=%v", err)
	}
	if _, err := st.Target(st.DeviceKey(1)); err == nil {
		t.Fatalf("target on double-and-add must error")
	}
	if _, err := st.ProgramFor(st.DeviceKey(1)); err != nil {
		t.Fatalf("double-and-add program: %v", err)
	}
}

// TestSessionReuseEquivalence: one pooled Session driven across
// perfect, iid and bursty stacks and several seeds returns exactly
// what a fresh Session returns for each (stack, parties, seed), so a
// worker's session history never leaks into a result.
func TestSessionReuseEquivalence(t *testing.T) {
	var stacks []*Stack
	for _, ch := range []struct {
		kind string
		loss float64
	}{{ChannelPerfect, 0}, {ChannelIID, 0.3}, {ChannelBursty, 0.5}} {
		p := Defaults()
		p.Channel, p.Loss = ch.kind, ch.loss
		stacks = append(stacks, p.MustBuild())
	}
	pooled := NewSession(nil)
	run := func(s *Session, st *Stack, seed uint64) SessionOutcome {
		t.Helper()
		dev, rdr, err := st.Parties(seed ^ 0xC0FFEE)
		if err != nil {
			t.Fatal(err)
		}
		out, err := s.Run(st, dev, rdr, seed)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	aborted := false
	for seed := uint64(1); seed <= 6; seed++ {
		for i, st := range stacks {
			got := run(pooled, st, seed)
			if want := run(NewSession(nil), st, seed); got != want {
				t.Fatalf("%s seed %d: pooled %+v != fresh %+v", st.Point.Channel, seed, got, want)
			}
			aborted = aborted || !got.Completed
			if i != 0 {
				continue
			}
			// The perfect link: one attempt per frame, the paper's
			// 4 device point multiplications, and a PHY bill above
			// the payload (framing + ACKs).
			if !got.Completed || got.Retries != 0 {
				t.Fatalf("perfect-link session: %+v", got)
			}
			if got.Ledger.PointMuls != 4 {
				t.Fatalf("device PMs = %d, want 4", got.Ledger.PointMuls)
			}
			if got.PhyTxBits <= got.Ledger.TxBits {
				t.Fatalf("PHY bill (%d) must exceed payload (%d): framing+ACKs", got.PhyTxBits, got.Ledger.TxBits)
			}
		}
	}
	if !aborted {
		t.Fatal("no session aborted: the lossy stacks do not exercise the abort path")
	}
}

// TestSessionRearmAllocs gates the pooled path: re-arming a Session's
// link for the next session allocates nothing.
func TestSessionRearmAllocs(t *testing.T) {
	p := Defaults()
	p.Channel, p.Loss = ChannelBursty, 0.3
	st := p.MustBuild()
	s := NewSession(nil)
	if n := testing.AllocsPerRun(100, func() {
		if err := s.pair.Reset(st.Channel, st.ARQ, 99); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("session re-arm allocates %v times, want 0", n)
	}
}

// MixSeed is pinned: it is the historical linksim session mixer, and
// changing it silently re-rolls every linklab and designlab table.
func TestMixSeedPinned(t *testing.T) {
	if got := MixSeed(0, 0, 0); got != 0 {
		t.Fatalf("MixSeed(0,0,0) = %#x, want 0", got)
	}
	want := func(seed uint64, cell, rep int) uint64 {
		z := seed ^ (uint64(cell) << 32) ^ uint64(rep)
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	for _, tc := range []struct {
		seed      uint64
		cell, rep int
	}{{1, 0, 0}, {1, 3, 17}, {42, 7, 2}} {
		if got, w := MixSeed(tc.seed, tc.cell, tc.rep), want(tc.seed, tc.cell, tc.rep); got != w {
			t.Fatalf("MixSeed(%d,%d,%d) = %#x, want %#x", tc.seed, tc.cell, tc.rep, got, w)
		}
	}
}

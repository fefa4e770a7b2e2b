package main

import (
	"math"
	"testing"

	"medsec/internal/design"
)

// TestEvalPointSessionPricePinned freezes the exact bits of the
// session columns evalPoint reports — mean energy, mean latency and
// completion — on a perfect, an iid and a bursty channel. The lossy
// points retry and abort, so retransmission pricing and the
// completed-only latency mean are both covered. The table renders
// these to one decimal, which cannot see a change in float
// association; the bits can.
func TestEvalPointSessionPricePinned(t *testing.T) {
	cases := []struct {
		channel string
		loss    float64
		// want holds math.Float64bits of SessionJ, LatencyS, Completion.
		want [3]uint64
	}{
		{design.ChannelPerfect, 0, [3]uint64{0x3f1928066acb5335, 0x3fda770a935aed43, 0x3ff0000000000000}},
		{design.ChannelIID, 0.1, [3]uint64{0x3f1f04e000d7e3a1, 0x3fda94506614aab0, 0x3ff0000000000000}},
		{design.ChannelIID, 0.3, [3]uint64{0x3f24d85923ce64bb, 0x3fdac360ad42f5d5, 0x3feaaaaaaaaaaaab}},
		{design.ChannelBursty, 0.5, [3]uint64{0x3f232e134a17e161, 0x3fdb0ae3f9933080, 0x3fe0000000000000}},
	}
	for i, tc := range cases {
		p := design.Defaults()
		p.Channel = tc.channel
		p.Loss = tc.loss
		st, err := p.Build()
		if err != nil {
			t.Fatal(err)
		}
		r, err := evalPoint(design.NewSession(nil), st, i, 1, 6, 0, design.DefaultLanes, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := [3]uint64{math.Float64bits(r.SessionJ), math.Float64bits(r.LatencyS), math.Float64bits(r.Completion)}
		if got != tc.want {
			t.Errorf("%s loss %v: bits %#x, want %#x (SessionJ %v, LatencyS %v, Completion %v)",
				tc.channel, tc.loss, got, tc.want, r.SessionJ, r.LatencyS, r.Completion)
		}
	}
}

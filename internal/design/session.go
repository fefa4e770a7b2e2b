package design

import (
	"medsec/internal/link"
	"medsec/internal/obs"
	"medsec/internal/protocol"
	"medsec/internal/rng"
)

// SessionOutcome is one mutual-authentication session over the
// point's link, with the device-side radio billing attached.
type SessionOutcome struct {
	Completed bool
	// Stage is where the session stopped (protocol.StageComplete on
	// success, protocol.StageLink when the retry budget died).
	Stage string
	// Retries is the device endpoint's retransmission count.
	Retries int
	// Ledger is the device's computation/payload ledger.
	Ledger protocol.Ledger
	// PhyTxBits/PhyRxBits are the device's on-air bill, framing and
	// ACKs included.
	PhyTxBits, PhyRxBits int
}

// Session is one worker's pooled session state: a link pair re-armed
// in place per session, with the wire bound to its endpoints once, so
// session setup allocates nothing. Not safe for concurrent use.
type Session struct {
	pair *link.Pair
	wire *protocol.Wire
}

// NewSession returns a Session whose link counters go to reg (nil:
// uninstrumented).
func NewSession(reg *obs.Registry) *Session {
	p := link.NewLosslessPair()
	p.Instrument(reg)
	return &Session{pair: p, wire: protocol.NewWire(p)}
}

// Run runs one server-first mutual-authentication session between dev
// and rdr on the link link.NewPair(st.Channel, st.ARQ, seed) would
// build, so no outcome depends on what the Session ran before.
func (s *Session) Run(st *Stack, dev *protocol.Tag, rdr *protocol.Reader, seed uint64) (SessionOutcome, error) {
	if err := s.pair.Reset(st.Channel, st.ARQ, seed); err != nil {
		return SessionOutcome{}, err
	}
	res, err := protocol.RunMutualAuthSession(dev, rdr, protocol.SessionOptions{Wire: s.wire, ServerFirst: true})
	if err != nil {
		return SessionOutcome{}, err
	}
	stats := s.pair.A().Stats()
	return SessionOutcome{
		Completed: res.Completed,
		Stage:     res.AbortStage,
		Retries:   stats.Retries,
		Ledger:    res.DeviceLedger,
		PhyTxBits: stats.PhyTxBits(),
		PhyRxBits: stats.PhyRxBits(),
	}, nil
}

// Parties builds a registered device/server pair on this point's
// curve, both drawing from one DRBG seeded with seed (server keys
// first), so the pair is a pure function of the seed.
func (s *Stack) Parties(seed uint64) (*protocol.Tag, *protocol.Reader, error) {
	src := rng.NewDRBG(seed).Uint64
	mul := &protocol.SoftwareMultiplier{Curve: s.Curve, Rand: src}
	rdr, err := protocol.NewReader(s.Curve, mul, src)
	if err != nil {
		return nil, nil, err
	}
	dev, err := protocol.NewTag(s.Curve, mul, src, rdr.Pub)
	if err != nil {
		return nil, nil, err
	}
	rdr.Register(dev.Pub)
	return dev, rdr, nil
}

// Price is the one session bill: energy is every on-air bit (framing,
// ACKs, retransmissions) at this point's distance plus the point
// multiplications at pm.EnergyJ and the ModMuls and AES blocks at
// Costs; latency is the point multiplications at pm.Cycles on the
// point's clock plus the airtime of the bits. Its float evaluation
// order is what every published session table is pinned to.
func (s *Stack) Price(o SessionOutcome, pm Measurement) (energyJ, latencyS float64) {
	energyJ = s.Radio.TxEnergy(o.PhyTxBits, s.Point.DistanceM) +
		s.Radio.RxEnergy(o.PhyRxBits) +
		float64(o.Ledger.PointMuls)*pm.EnergyJ +
		float64(o.Ledger.ModMuls)*s.Costs.ModMulJ +
		float64(o.Ledger.AESBlocks)*s.Costs.AESBlockJ
	latencyS = float64(o.Ledger.PointMuls)*float64(pm.Cycles)/s.Point.ClockHz +
		float64(o.PhyTxBits+o.PhyRxBits)/DefaultBitrateBps
	return energyJ, latencyS
}

package main

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"medsec/internal/battery"
	"medsec/internal/campaign"
	"medsec/internal/design"
	"medsec/internal/ec"
	"medsec/internal/fleet"
	"medsec/internal/gf2m"
	"medsec/internal/link"
	"medsec/internal/modn"
	"medsec/internal/protocol"
	"medsec/internal/rng"
)

// The fleet twin re-assembles fleet.Run's per-device loop from public
// calls — design.Cache.BuildInto, protocol key generation and
// RunMutualAuthSession over a pooled link.Pair, battery pricing —
// driven by campaign.RunSharded, with a span around each call and a
// protocol.PointMultiplier wrapper timing every ec ladder. Its
// per-cohort tallies must equal the untraced fleet.Run report's
// accumulator, which proves the twin does the same work. The device
// parameter derivation mirrors fleet's (per-device knob stream, seed
// tags), so a change there shows as a tally mismatch.

// Per-device substream tags of fleet's design.MixSeed derivation.
const (
	streamKnobs   = 11
	streamSeed    = 12
	streamTRNG    = 13
	streamNomKey  = 7
	streamNomRand = 8
	streamParties = 21
	streamSession = 100
	streamStorm   = 1 << 20
	lifetimeCapY  = 200
)

// deviceParams mirrors fleet's per-device specialization: channel and
// distance jitter, battery age, and the device's private seeds.
func deviceParams(c fleet.Config, idx int) (cohort int, p design.Point, ageYears float64) {
	lo := 0
	for ci, co := range c.Cohorts {
		if idx >= lo+co.Devices {
			lo += co.Devices
			continue
		}
		p = co.Point
		d := rng.NewDRBG(design.MixSeed(c.Seed, idx, streamKnobs))
		u01 := func() float64 { return float64(d.Uint64()>>11) * (1.0 / (1 << 53)) }
		if co.LossJitter > 0 {
			p.Loss = math.Min(1, math.Max(0, p.Loss+(2*u01()-1)*co.LossJitter))
		}
		if co.DistanceJitterM > 0 {
			p.DistanceM = math.Max(0.1, p.DistanceM+(2*u01()-1)*co.DistanceJitterM)
		}
		ageYears = co.BatteryAgeYears
		if co.AgeSpreadYears > 0 {
			ageYears = math.Max(0, ageYears+(2*u01()-1)*co.AgeSpreadYears)
		}
		p.Name = co.Name
		p.Seed = design.MixSeed(c.Seed, idx, streamSeed)
		p.TRNGSeed = design.MixSeed(c.Seed, idx, streamTRNG)
		return ci, p, ageYears
	}
	panic(fmt.Sprintf("device %d outside the fleet", idx)) // RunSharded stays in range
}

// nominal is a cohort's nominal point-multiplication cost, as
// fleet.Run prices it.
type nominal struct {
	energyJ float64
	cycles  int
}

// nominals builds the twin's cache and prices the cohort nominals
// through it: the calls fleet.Run makes before its first device.
func (f *fleetInst) nominals(b *spanBuf) error {
	f.cache = design.NewCache()
	f.noms = make([]nominal, len(f.cfg.Cohorts))
	for i, co := range f.cfg.Cohorts {
		b.begin("design.build")
		st, err := f.cache.Build(co.Point)
		b.end()
		if err != nil {
			return fmt.Errorf("cohort %s: %w", co.Name, err)
		}
		b.begin("coproc.nominal")
		pm, err := st.MeasurePointMul(st.DeviceKey(design.MixSeed(f.cfg.Seed, i, streamNomKey)), design.MixSeed(f.cfg.Seed, i, streamNomRand))
		b.end()
		if err != nil {
			return fmt.Errorf("cohort %s nominal: %w", co.Name, err)
		}
		f.noms[i] = nominal{energyJ: pm.EnergyJ, cycles: pm.Cycles}
	}
	return nil
}

func stormPoint(p design.Point, boost float64) design.Point {
	if p.Channel == design.ChannelPerfect {
		p.Channel = design.ChannelIID
	}
	p.Loss = math.Min(1, p.Loss+boost)
	return p
}

// cohortTally is the twin's integer-exact per-cohort fold, the subset
// of fleet.CohortAccum the twin can reproduce, plus link counters.
type cohortTally struct {
	Devices, Sessions, Completed, LinkAborts, OtherAborts int64
	StormSessions, StormCompleted, Retries, EnergyPJ      int64
	LatencyUSSum, BatteryDevices, LifetimeCYSum           int64
	OutlivedSpec                                          int64
	// Link counters over both endpoints (not in the fleet report).
	frames, retriesAB, payloadBits, phyBits int64
	sessionMuls                             int64
}

func (t *cohortTally) add(o *cohortTally) {
	t.Devices += o.Devices
	t.Sessions += o.Sessions
	t.Completed += o.Completed
	t.LinkAborts += o.LinkAborts
	t.OtherAborts += o.OtherAborts
	t.StormSessions += o.StormSessions
	t.StormCompleted += o.StormCompleted
	t.Retries += o.Retries
	t.EnergyPJ += o.EnergyPJ
	t.LatencyUSSum += o.LatencyUSSum
	t.BatteryDevices += o.BatteryDevices
	t.LifetimeCYSum += o.LifetimeCYSum
	t.OutlivedSpec += o.OutlivedSpec
	t.frames += o.frames
	t.retriesAB += o.retriesAB
	t.payloadBits += o.payloadBits
	t.phyBits += o.phyBits
	t.sessionMuls += o.sessionMuls
}

// reportTallies extracts the same fields from a fleet report.
func reportTallies(rep *fleet.Report) []cohortTally {
	out := make([]cohortTally, len(rep.Accum.Cohorts))
	for i, c := range rep.Accum.Cohorts {
		out[i] = cohortTally{Devices: c.Devices, Sessions: c.Sessions, Completed: c.Completed,
			LinkAborts: c.LinkAborts, OtherAborts: c.OtherAborts, StormSessions: c.StormSessions,
			StormCompleted: c.StormCompleted, Retries: c.Retries, EnergyPJ: c.EnergyPJ,
			LatencyUSSum: c.LatencyUSSum, BatteryDevices: c.BatteryDevices,
			LifetimeCYSum: c.LifetimeCYSum, OutlivedSpec: c.OutlivedSpec}
	}
	return out
}

// tallyDigest hashes the report-visible tally fields.
func tallyDigest(ts []cohortTally) string {
	b, err := json.Marshal(ts) // exported fields only: the report-visible ones
	if err != nil {
		panic(err) // plain integers always marshal
	}
	return hashString(string(b))
}

// timedMul is a protocol.PointMultiplier wrapper: a span per ladder
// when b is set, and a call count and total time always.
type timedMul struct {
	inner protocol.PointMultiplier
	b     *spanBuf
	calls int64
	ns    int64
}

func (m *timedMul) ScalarMul(k modn.Scalar, p ec.Point) (ec.Point, error) {
	m.b.begin("ec.mul")
	t0 := time.Now()
	q, err := m.inner.ScalarMul(k, p)
	m.ns += int64(time.Since(t0))
	m.calls++
	m.b.end()
	return q, err
}

func (m *timedMul) XOnlyMul(k modn.Scalar, p ec.Point) (gf2m.Element, error) {
	m.b.begin("ec.mul")
	t0 := time.Now()
	x, err := m.inner.XOnlyMul(k, p)
	m.ns += int64(time.Since(t0))
	m.calls++
	m.b.end()
	return x, err
}

// fleetLab is one worker's pooled session state, as fleet's lab.
type fleetLab struct {
	f            *fleetInst
	b            *spanBuf
	pair         *link.Pair
	wire         *protocol.Wire
	stack, storm design.Stack
	// lossless, when set, runs sessions over a fresh lossless wire
	// instead of the pooled lossy pair (the link probe's baseline).
	lossless bool
	// sessionNS is the session time outside ec ladders.
	sessionNS int64
}

func (f *fleetInst) newLab(b *spanBuf) *fleetLab {
	p := link.NewLosslessPair()
	return &fleetLab{f: f, b: b, pair: p, wire: protocol.NewWire(p)}
}

func (l *fleetLab) device(idx int) (int, cohortTally, error) {
	b, cfg := l.b, l.f.cfg
	b.begin("fleet.device")
	defer b.end()
	ci, point, age := deviceParams(cfg, idx)
	out, err := l.deviceSessions(ci, point, age, idx)
	return ci, out, err
}

func (l *fleetLab) deviceSessions(ci int, point design.Point, age float64, idx int) (cohortTally, error) {
	b, cfg := l.b, l.f.cfg
	out := cohortTally{Devices: 1}
	b.begin("design.buildinto")
	err := l.f.cache.BuildInto(&l.stack, point)
	b.end()
	if err != nil {
		return out, err
	}
	st := &l.stack
	src := rng.NewDRBG(design.MixSeed(cfg.Seed, idx, streamParties)).Uint64
	mul := &timedMul{inner: &protocol.SoftwareMultiplier{Curve: st.Curve, Rand: src}, b: b}
	b.begin("protocol.keygen")
	rdr, err := protocol.NewReader(st.Curve, mul, src)
	var dev *protocol.Tag
	if err == nil {
		dev, err = protocol.NewTag(st.Curve, mul, src, rdr.Pub)
	}
	if err == nil {
		rdr.Register(dev.Pub)
	}
	b.end()
	if err != nil {
		return out, err
	}
	nom := l.f.noms[ci]
	for rep := 0; rep < cfg.SessionsPerDevice; rep++ {
		if err := l.session(st, nom, dev, rdr, mul, design.MixSeed(cfg.Seed, idx, streamSession+rep), false, &out); err != nil {
			return out, err
		}
	}
	if cfg.Storm != nil {
		b.begin("design.buildinto")
		err := l.f.cache.BuildInto(&l.storm, stormPoint(point, cfg.Storm.LossBoost))
		b.end()
		if err != nil {
			return out, err
		}
		for rep := 0; rep < cfg.Storm.Sessions; rep++ {
			if err := l.session(&l.storm, nom, dev, rdr, mul, design.MixSeed(cfg.Seed, idx, streamStorm+rep), true, &out); err != nil {
				return out, err
			}
		}
	}
	if point.Battery == design.BatteryPacemaker {
		co := cfg.Cohorts[ci]
		cell := st.Battery
		cell.CapacityJ *= math.Max(0.1, 1-cell.SelfDischargePerYear*age)
		total := out.Sessions + out.StormSessions
		lt, err := cell.SecurityLifetimeYears(battery.Workload{
			SessionsPerDay: co.SessionsPerDay,
			SessionEnergyJ: float64(out.EnergyPJ) / 1e12 / float64(total),
		})
		if err != nil {
			return out, err
		}
		cy := int64(math.Round(math.Min(lt, lifetimeCapY) * 100))
		out.BatteryDevices = 1
		out.LifetimeCYSum = cy
		if age+math.Min(lt, lifetimeCapY) >= co.SpecYears {
			out.OutlivedSpec = 1
		}
	}
	return out, nil
}

func (l *fleetLab) session(st *design.Stack, nom nominal, dev *protocol.Tag, rdr *protocol.Reader,
	mul *timedMul, seed uint64, storm bool, out *cohortTally) error {
	b := l.b
	wire := l.wire
	if l.lossless {
		wire = protocol.NewLosslessWire()
	} else {
		b.begin("link.reset")
		err := l.pair.Reset(st.Channel, st.ARQ, seed)
		b.end()
		if err != nil {
			return err
		}
	}
	muls0, mulNS0 := mul.calls, mul.ns
	b.begin("protocol.session")
	t0 := time.Now()
	res, err := protocol.RunMutualAuthSession(dev, rdr, protocol.SessionOptions{Wire: wire, ServerFirst: true})
	l.sessionNS += int64(time.Since(t0)) - (mul.ns - mulNS0)
	b.end()
	if err != nil {
		return err
	}
	out.sessionMuls += mul.calls - muls0
	if l.lossless {
		return nil
	}
	sa, sb := l.pair.A().Stats(), l.pair.B().Stats()
	eJ := st.Radio.TxEnergy(sa.PhyTxBits(), st.Point.DistanceM) +
		st.Radio.RxEnergy(sa.PhyRxBits()) +
		float64(res.DeviceLedger.PointMuls)*nom.energyJ +
		float64(res.DeviceLedger.ModMuls)*st.Costs.ModMulJ +
		float64(res.DeviceLedger.AESBlocks)*st.Costs.AESBlockJ
	out.EnergyPJ += int64(math.Round(eJ * 1e12))
	out.Retries += int64(sa.Retries)
	out.frames += int64(sa.FramesSent + sb.FramesSent)
	out.retriesAB += int64(sa.Retries + sb.Retries)
	out.payloadBits += int64(sa.DataTxBits + sb.DataTxBits)
	out.phyBits += int64(sa.PhyTxBits() + sb.PhyTxBits())
	if storm {
		out.StormSessions++
	} else {
		out.Sessions++
	}
	switch {
	case res.Completed:
		if storm {
			out.StormCompleted++
		} else {
			out.Completed++
		}
		latS := float64(res.DeviceLedger.PointMuls)*float64(nom.cycles)/st.Point.ClockHz +
			float64(sa.PhyTxBits()+sa.PhyRxBits())/design.DefaultBitrateBps
		out.LatencyUSSum += int64(math.Round(latS * 1e6))
	case res.AbortStage == protocol.StageLink:
		out.LinkAborts++
	default:
		out.OtherAborts++
	}
	return nil
}

// fleetShard is one reduction shard: a tally per cohort.
type fleetShard []cohortTally

func (f *fleetInst) twin(tr *tracer, root *spanBuf) (outcome, *twinReport, error) {
	if err := f.nominals(root); err != nil {
		return outcome{}, nil, err
	}
	total := f.cfg.TotalDevices()
	workers := campaign.Workers(f.o.workers)
	lay := campaign.ShardingFor(0, total, 0)
	merged := make(fleetShard, len(f.cfg.Cohorts))

	root.begin("campaign.run")
	labs := make([]*fleetLab, workers)
	for i := range labs {
		labs[i] = f.newLab(tr.buf(fmt.Sprintf("worker%d", i), root))
	}
	sbufs := make([]*spanBuf, lay.N)
	for i := range sbufs {
		sbufs[i] = tr.buf(fmt.Sprintf("shard%d", i), root)
	}
	type devOut struct {
		cohort int
		t      cohortTally
	}
	_, err := campaign.RunSharded(0, total, campaign.ShardedConfig{Workers: f.o.workers},
		func(idx int) (int, error) { return idx, nil },
		func(w, idx, _ int) (devOut, error) {
			ci, t, err := labs[w].device(idx)
			return devOut{cohort: ci, t: t}, err
		},
		func(int) fleetShard { return make(fleetShard, len(f.cfg.Cohorts)) },
		func(s int, acc fleetShard, _ int, _ int, d devOut) error {
			sbufs[s].begin("fleet.fold")
			acc[d.cohort].add(&d.t)
			sbufs[s].end()
			return nil
		},
		func(_ int, acc fleetShard) error {
			root.begin("fleet.merge")
			for i := range merged {
				merged[i].add(&acc[i])
			}
			root.end()
			return nil
		})
	root.end()
	if err != nil {
		return outcome{}, nil, err
	}
	var sum cohortTally
	for i := range merged {
		sum.add(&merged[i])
	}
	sessions := sum.Sessions + sum.StormSessions
	out := outcome{work: int(sessions), digest: tallyDigest(merged)}

	rep := &twinReport{
		workers: workers,
		metrics: map[string]float64{
			"ec.muls_per_session":      ratio(float64(sum.sessionMuls), float64(sessions)),
			"link.tries_per_session":   ratio(float64(sum.frames), float64(sessions)),
			"link.retries_per_session": ratio(float64(sum.retriesAB), float64(sessions)),
			"link.payload_tx_ratio":    ratio(float64(sum.payloadBits), float64(sum.phyBits)),
		},
		// The link's share of a session is the probe's lossy-minus-
		// lossless session time; it moves from protocol to link.
		probe: func(r *twinReport) error {
			linkNS, err := f.linkProbe()
			r.moves = append(r.moves, layerMove{from: "protocol", to: "link", ns: linkNS * float64(sessions)})
			return err
		},
	}
	return out, rep, nil
}

// linkProbe estimates the link's time per session: the same devices'
// sessions (ec ladders excluded) over the lossy pooled pair minus over
// a lossless wire, on an evenly spread sample of devices.
func (f *fleetInst) linkProbe() (float64, error) {
	total := f.cfg.TotalDevices()
	step := max(1, total/40)
	var lossy, lossless int64
	sessions := 0
	for idx := 0; idx < total; idx += step {
		for _, ll := range []bool{false, true} {
			l := f.newLab(nil)
			l.lossless = ll
			_, t, err := l.device(idx)
			if err != nil {
				return 0, err
			}
			if ll {
				lossless += l.sessionNS
			} else {
				lossy += l.sessionNS
				sessions += int(t.Sessions + t.StormSessions)
			}
		}
	}
	return ratio(float64(lossy-lossless), float64(sessions)), nil
}

// mergeCost times fleet.Accum.Merge of a full-fleet accumulator into
// a copy of itself (median of 5), the shard-merge step of fleetlab.
func mergeCost(rep *fleet.Report) (float64, error) {
	raw, err := json.Marshal(rep.Accum)
	if err != nil {
		return 0, err
	}
	var ts []float64
	for i := 0; i < 5; i++ {
		var a, b fleet.Accum
		if err := json.Unmarshal(raw, &a); err != nil {
			return 0, err
		}
		if err := json.Unmarshal(raw, &b); err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := a.Merge(&b); err != nil {
			return 0, err
		}
		ts = append(ts, float64(time.Since(t0).Nanoseconds()))
	}
	return median(ts) / 1e3, nil
}

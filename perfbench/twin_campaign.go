package main

import (
	"errors"
	"fmt"
	"time"

	"medsec/internal/campaign"
	"medsec/internal/coproc"
	"medsec/internal/ec"
	"medsec/internal/gf2m"
	"medsec/internal/lightcrypto"
	"medsec/internal/modn"
	"medsec/internal/power"
	"medsec/internal/rng"
	"medsec/internal/sca"
	"medsec/internal/trace"
)

// The campaign twin re-assembles sca's lane-batched full-budget TVLA
// from the layers' public calls — campaign.RunShardedBatch driving
// coproc.LaneCPU, power.Model, trace.Collector and the streaming Welch
// accumulators — with a span around each call. Its t-curve must match
// the untraced sca.TVLA/TVLA2 unit bit for bit, which proves the twin
// does the same work; the per-trace seed derivations below mirror
// sca's, so a change there shows as a digest mismatch, not as a
// silently different workload.

// traceSeed / maskSeed / noiseSeed mirror sca.Target's per-trace
// device-TRNG, mask-TRNG and measurement-noise substreams.
func traceSeed(trng, idx uint64) uint64 { return trng ^ (idx+1)*0x9e3779b97f4a7c15 }
func maskSeed(trng, idx uint64) uint64 {
	return trng ^ 0xd1342543de82ef95 ^ (idx+1)*0x94d049bb133111eb
}
func noiseSeed(cfg power.Config, idx uint64) power.Config {
	cfg.Seed ^= (idx + 1) * 0xbf58476d1ce4e5b9
	return cfg
}

// acqJob is one prepared acquisition.
type acqJob struct {
	key modn.Scalar
	dev uint64
}

// welchAcc is the common surface of trace.OnlineWelch and
// trace.OnlineWelch2.
type welchAcc interface {
	AddA(samples []float64) error
	AddB(samples []float64) error
	T() ([]float64, error)
}

// laneSlot is one lane's per-trace device state.
type laneSlot struct {
	drbg, maskDrbg *rng.DRBG
	model          *power.Model
	col            *trace.Collector
	randFn, maskFn func() uint64
	sink           coproc.Probe
}

// laneScratch is one worker's batched acquisition state.
type laneScratch struct {
	lc    *coproc.LaneCPU
	slots []*laneSlot
	runs  []coproc.LaneRun
}

// acqSetup is the campaign's fixed acquisition geometry.
type acqSetup struct {
	c          *campaignInst
	point      ec.Point
	consts     [coproc.NumConsts]gf2m.Element
	start, end int
	quiet      int
	masked     bool
	lanes      int
}

func (c *campaignInst) acqSetup() (*acqSetup, error) {
	tgt := c.tgt
	start, end := tgt.Window(firstIter, lastIter)
	a := &acqSetup{c: c, point: sca.FixedPoint(c.st.Curve), start: start, end: end, quiet: start,
		masked: tgt.Masked, lanes: campaign.Lanes(tgt.Lanes)}
	a.consts = coproc.OperandConstants(a.point.X, tgt.Curve.B, a.point.Y)
	// sca resumes fixed-key traces from a prologue snapshot when the
	// program has a TRNG-free prefix; both workload points (RPC on, or
	// masked) have none, so every trace runs the quiet prologue. The
	// twin does not model snapshots and refuses a point that has one.
	if !a.masked {
		if _, cycle, _ := tgt.Program().PrefixBoundary(tgt.Timing, start); cycle > 0 {
			return nil, errors.New("twin: the point admits a prologue snapshot, which the twin does not model")
		}
	}
	return a, nil
}

func (a *acqSetup) newScratch() *laneScratch {
	s := &laneScratch{lc: coproc.NewLaneCPU(a.c.tgt.Timing), slots: make([]*laneSlot, a.lanes), runs: make([]coproc.LaneRun, a.lanes)}
	for i := range s.slots {
		sl := &laneSlot{drbg: rng.NewDRBG(0), maskDrbg: rng.NewDRBG(0), model: power.NewModel(a.c.tgt.Power)}
		sl.col = trace.NewCollector(sl.model, 0, 0)
		sl.randFn, sl.maskFn = sl.drbg.Uint64, sl.maskDrbg.Uint64
		sl.sink = sl.col.LaneSink()
		s.slots[i] = sl
	}
	return s
}

// prime re-seeds and re-initializes each lane for its job, as sca's
// acquireBatchPlanned does, recording one span per layer.
func (a *acqSetup) prime(b *spanBuf, s *laneScratch, jobs []acqJob, sink bool) {
	tgt := a.c.tgt
	b.begin("rng.reseed")
	for i, j := range jobs {
		sl := s.slots[i]
		sl.drbg.Reseed(traceSeed(tgt.TRNGSeed, j.dev))
		if a.masked {
			sl.maskDrbg.Reseed(maskSeed(tgt.TRNGSeed, j.dev))
		}
	}
	b.end()
	b.begin("power.reinit")
	for i, j := range jobs {
		sl := s.slots[i]
		sl.model.Reinit(noiseSeed(tgt.Power, j.dev))
		sl.model.SkipCycles(a.quiet)
	}
	b.end()
	b.begin("trace.begin")
	for i, j := range jobs {
		sl := s.slots[i]
		sl.col.Start, sl.col.End = a.start, a.end
		sl.col.Begin()
		r := coproc.LaneRun{Key: j.key, Rand: sl.randFn, Consts: a.consts}
		if sink {
			r.Sink = sl.sink
		}
		if a.masked {
			r.MaskRand = sl.maskFn
		}
		s.runs[i] = r
	}
	b.end()
	lc := s.lc
	lc.Timing = tgt.Timing
	lc.Masked = a.masked
	lc.MaxCycles = a.end
	lc.QuietCycles = a.quiet
}

// runLanes executes the primed batch.
func (a *acqSetup) runLanes(s *laneScratch, n int) error {
	if _, err := s.lc.Run(a.c.tgt.Program(), s.runs[:n]); err != nil && !errors.Is(err, coproc.ErrStopped) {
		return err
	}
	return nil
}

// prepare returns the fixed/random job stream: even indices under the
// device key, odd ones under a fresh random scalar.
func (a *acqSetup) prepare(b *spanBuf) campaign.PrepareFunc[acqJob] {
	randKey := a.c.randKey()
	return func(idx int) (acqJob, error) {
		b.begin("sca.prepare")
		j := acqJob{key: a.c.tgt.Key, dev: uint64(idx)}
		if idx%2 == 1 {
			j.key = randKey()
		}
		b.end()
		return j, nil
	}
}

func (c *campaignInst) twin(tr *tracer, root *spanBuf) (outcome, *twinReport, error) {
	a, err := c.acqSetup()
	if err != nil {
		return outcome{}, nil, err
	}
	n := 2 * c.perSet
	workers := campaign.Workers(c.o.workers)
	lay := campaign.ShardingFor(0, n, 0)

	var (
		w     welchAcc
		newW  func() welchAcc
		merge func(dst, src welchAcc) error
	)
	if c.order == 1 {
		newW = func() welchAcc { return trace.NewOnlineWelch() }
		merge = func(dst, src welchAcc) error { return dst.(*trace.OnlineWelch).Merge(src.(*trace.OnlineWelch)) }
	} else {
		newW = func() welchAcc { return trace.NewOnlineWelch2() }
		merge = func(dst, src welchAcc) error { return dst.(*trace.OnlineWelch2).Merge(src.(*trace.OnlineWelch2)) }
	}
	w = newW()

	root.begin("campaign.run")
	disp := tr.buf("dispatch", root)
	wbufs := make([]*spanBuf, workers)
	for i := range wbufs {
		wbufs[i] = tr.buf(fmt.Sprintf("worker%d", i), root)
	}
	sbufs := make([]*spanBuf, lay.N)
	for i := range sbufs {
		sbufs[i] = tr.buf(fmt.Sprintf("shard%d", i), root)
	}
	scratch := make([]*laneScratch, workers)
	acquire := func(worker, _ int, jobs []acqJob, out []trace.Trace) error {
		b := wbufs[worker]
		s := scratch[worker]
		if s == nil {
			s = a.newScratch()
			scratch[worker] = s
		}
		b.begin("sca.batch")
		defer b.end()
		a.prime(b, s, jobs, true)
		b.begin("coproc.run")
		err := a.runLanes(s, len(jobs))
		b.end()
		if err != nil {
			return err
		}
		b.begin("trace.take")
		for i := range jobs {
			out[i] = s.slots[i].col.Take()
		}
		b.end()
		return nil
	}
	fold := func(shard int, acc welchAcc, idx int, _ acqJob, t trace.Trace) error {
		b := sbufs[shard]
		b.begin("trace.accum")
		var err error
		if idx%2 == 0 {
			err = acc.AddA(t.Samples)
		} else {
			err = acc.AddB(t.Samples)
		}
		t.Release()
		b.end()
		return err
	}
	mergeShard := func(_ int, acc welchAcc) error {
		root.begin("trace.merge")
		defer root.end()
		return merge(w, acc)
	}
	_, err = campaign.RunShardedBatch(0, n, a.lanes, campaign.ShardedConfig{Workers: c.o.workers},
		a.prepare(disp), acquire, func(int) welchAcc { return newW() }, fold, mergeShard)
	root.end()
	if err != nil {
		return outcome{}, nil, err
	}
	root.begin("trace.tcurve")
	ts, err := w.T()
	root.end()
	if err != nil {
		return outcome{}, nil, err
	}
	mx, _ := trace.MaxAbs(ts)
	out := campaignOutcome(n, ts, mx)

	rep := &twinReport{
		workers: workers,
		metrics: map[string]float64{},
		probe:   func(r *twinReport) error { return c.probe(a, n, r) },
	}
	return out, rep, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// probe times the layers that run inside one LaneCPU.Run call on a
// sample of the campaign's own jobs: the run without an event sink
// (interpreter only), the run with the collector's lane sink
// (interpreter + per-cycle power + collection), the noise fill the
// sink performs, and — on the masked point — the quiet run again with
// each lane's mask words replayed from a recording instead of drawn
// from the mask DRBG, whose difference to the live quiet run is the
// DRBG's cost. The ratios split the twin's coproc.run self time
// between coproc, trace, power and rng.
func (c *campaignInst) probe(a *acqSetup, n int, rep *twinReport) error {
	sample := min(n, 512)
	if a.masked {
		sample = min(n, 256) // masked traces cost ~15x more
	}
	prep := a.prepare(nil)
	jobs := make([]acqJob, sample)
	for i := range jobs {
		jobs[i], _ = prep(i)
	}
	s := a.newScratch()
	timed := func(lanes int) (time.Duration, error) {
		t0 := time.Now()
		err := a.runLanes(s, lanes)
		el := time.Since(t0)
		for i := 0; i < lanes; i++ {
			t := s.slots[i].col.Take()
			t.Release()
		}
		return el, err
	}
	words := make([][]uint64, a.lanes)
	var full, quiet, replay time.Duration
	draws := 0
	for lo := 0; lo < sample; lo += a.lanes {
		batch := jobs[lo:min(lo+a.lanes, sample)]
		a.prime(nil, s, batch, true)
		el, err := timed(len(batch))
		if err != nil {
			return err
		}
		full += el
		a.prime(nil, s, batch, false)
		if el, err = timed(len(batch)); err != nil {
			return err
		}
		quiet += el
		if !a.masked {
			continue
		}
		a.prime(nil, s, batch, false)
		for i := range batch {
			live := s.runs[i].MaskRand
			words[i] = words[i][:0]
			s.runs[i].MaskRand = func() uint64 { v := live(); words[i] = append(words[i], v); return v }
		}
		if _, err := timed(len(batch)); err != nil {
			return err
		}
		a.prime(nil, s, batch, false)
		for i := range batch {
			w, pos := words[i], 0
			draws += len(w)
			s.runs[i].MaskRand = func() uint64 { v := w[pos]; pos++; return v }
		}
		if el, err = timed(len(batch)); err != nil {
			return err
		}
		replay += el
	}
	perTrace := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(sample) }
	fullNS, quietNS, interpNS := perTrace(full), perTrace(quiet), perTrace(quiet)
	if a.masked {
		interpNS = perTrace(replay)
	}

	// The lane sink refills its noise ring one 256-cycle block at a
	// time over the evented cycles.
	blocks := (a.end - a.quiet + 255) / 256
	model := power.NewModel(a.c.tgt.Power)
	var ring [256]float64
	t0 := time.Now()
	for i := 0; i < sample; i++ {
		model.Reinit(noiseSeed(a.c.tgt.Power, uint64(i)))
		for b := 0; b < blocks; b++ {
			model.FillNoise(ring[:])
		}
	}
	noiseNS := perTrace(time.Since(t0))

	rep.metrics["coproc.interp_us_per_trace"] = quietNS / 1e3
	rep.metrics["trace.collect_us_per_trace"] = (fullNS - quietNS) / 1e3
	rep.metrics["power.noise_us_per_trace"] = noiseNS / 1e3
	rep.metrics["rng.mask_draws_per_trace"] = float64(draws) / float64(sample)
	rep.metrics["rng.mask_us_per_trace"] = (quietNS - interpNS) / 1e3
	// coproc.run self time splits by the probe ratios: the quiet run is
	// the interpreter plus its mask draws (rng), the rest is the sink —
	// noise fill (power) and per-cycle power and collection (trace).
	rep.split = map[string]map[string]float64{
		"coproc": {
			"coproc": clamp01(interpNS / fullNS),
			"rng":    clamp01((quietNS - interpNS) / fullNS),
			"power":  clamp01(noiseNS / fullNS),
			"trace":  clamp01((fullNS - quietNS - noiseNS) / fullNS),
		},
	}
	return nil
}

func clamp01(x float64) float64 { return max(0, min(1, x)) }

// sinkU64 keeps timed loops' results live.
var sinkU64 uint64

// microbenchmarks shared by every workload: one AES-128 block
// encryption (the DRBG and link fault-stream primitive) and one
// GF(2^163) multiplication.
func primitiveCosts() (aesNS, mulNS float64) {
	a, err := lightcrypto.NewAES(make([]byte, 16))
	if err != nil {
		panic(err) // a 16-byte key is always valid
	}
	var blk [16]byte
	const aesN = 200000
	t0 := time.Now()
	for i := 0; i < aesN; i++ {
		blk[0] = byte(i)
		a.Encrypt(blk[:], blk[:])
	}
	aesNS = float64(time.Since(t0).Nanoseconds()) / aesN
	sinkU64 ^= uint64(blk[3])

	d := rng.NewDRBG(3)
	x := gf2m.FromWords(d.Uint64(), d.Uint64(), d.Uint64()>>29)
	y := gf2m.FromWords(d.Uint64(), d.Uint64(), d.Uint64()>>29)
	const mulN = 500000
	t0 = time.Now()
	for i := 0; i < mulN; i++ {
		x = gf2m.Mul(x, y)
	}
	mulNS = float64(time.Since(t0).Nanoseconds()) / mulN
	sinkU64 ^= x[0]
	return aesNS, mulNS
}

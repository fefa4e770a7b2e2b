package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"medsec/internal/design"
	"medsec/internal/fleet"
	"medsec/internal/modn"
	"medsec/internal/obs"
	"medsec/internal/rng"
	"medsec/internal/sca"
)

// The default seed is the one the repository's CLIs use; the held-out
// seed was not looked at while the workloads were sized. Both have
// stored reference outputs.
const (
	defaultSeed = 1
	heldOutSeed = 7
)

// TVLA window: ladder iterations 160..157, as scalab tvla uses.
const firstIter, lastIter = 160, 157

// protectedMaxT bounds max|t| of the protected point's full-budget
// TVLA on seeds without a stored reference.
const protectedMaxT = 6.0

// fleetSessionsPerDevice is the built-in fleet's 3 scheduled plus 2
// storm sessions.
const fleetSessionsPerDevice = 5

// workload is one benchmark workload: how to set it up for a seed and
// how large its fixed unit of work is.
type workload struct {
	name string
	// unitName/rateName label the unit of work and its throughput.
	unitName, rateName string
	// full and quick are the unit sizes: traces per set for the
	// campaigns, devices for the fleet.
	full, quick int
	// setup builds the workload; sb (nil when untraced) records the
	// set-up's layer calls.
	setup func(o options, size int, sb *spanBuf) (instance, error)
}

// instance is a set-up workload ready to run units of work.
type instance interface {
	// run executes one fixed unit of work, untraced, through the
	// program's own entry point (sca.TVLA/TVLA2, fleet.Run).
	run(rc runCtl) (outcome, error)
	// check validates an outcome against the workload's invariants
	// and, for seeds with stored references, the reference output.
	check(out outcome) error
	// twin executes the same unit through the traced twin pipeline,
	// recording spans under root, then runs the layer probes (see
	// traced.go).
	twin(tr *tracer, root *spanBuf) (outcome, *twinReport, error)
}

// runCtl is what the program runs a unit with; every field may be
// left zero.
type runCtl struct {
	// ctx cancels the unit (the program returns
	// campaign.ErrInterrupted).
	ctx context.Context
	// started is called when a campaign asks for its first input, the
	// first random-set scalar: its set-up is done.
	started func()
	// progress receives the cumulative work the unit has done.
	progress func(done int)
	// metrics receives the program's own instrumentation.
	metrics *obs.Registry
}

// outcome is what one unit of work produced.
type outcome struct {
	// work counts the unit's traces (both sets) or sessions.
	work int
	// digest hashes the simulated output: the t-curve's float bits, or
	// the rendered fleet report.
	digest string
	// verdict is PASS/LEAKS for the campaigns, empty for the fleet.
	verdict string
	maxT    float64
	// eventedRatio is the share of each trace's cycles the campaign
	// ran through the evented pipeline, after its prologue skip.
	eventedRatio float64
	// report is the fleet's full report (nil for campaigns).
	report *fleet.Report
	// twinDigest is the digest the traced twin must reproduce: the
	// t-curve's for the campaigns, the per-cohort tallies' for the
	// fleet (the twin does not render a report).
	twinDigest string
}

var workloads = []*workload{
	{name: "tvla-o1", unitName: "traces", rateName: "traces_per_s", full: 60000, quick: 300,
		setup: func(o options, n int, sb *spanBuf) (instance, error) { return setupCampaign(o, n, 1, sb) }},
	{name: "masked-o2", unitName: "traces", rateName: "traces_per_s", full: 3000, quick: 60,
		setup: func(o options, n int, sb *spanBuf) (instance, error) { return setupCampaign(o, n, 2, sb) }},
	{name: "fleet", unitName: "sessions", rateName: "sessions_per_s", full: 1000, quick: 12,
		setup: setupFleet},
}

func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func (w *workload) size(o options) int {
	if o.quick {
		return w.quick
	}
	return w.full
}

// reference is a stored full-size output for one (workload, seed).
type reference struct {
	Digest  string `json:"digest"`
	Verdict string `json:"verdict,omitempty"`
	MaxT    string `json:"max_t,omitempty"`
	// Sessions is the fleet's scheduled plus storm session count.
	Sessions int `json:"sessions,omitempty"`
}

//go:embed references.json
var referencesJSON []byte

// references maps workload → seed → reference output.
func references() (map[string]map[string]reference, error) {
	var refs map[string]map[string]reference
	if err := json.Unmarshal(referencesJSON, &refs); err != nil {
		return nil, fmt.Errorf("references.json: %w", err)
	}
	return refs, nil
}

// lookupReference returns the stored output for a full-size run, or
// nil when the seed has none or the run is a quick one.
func lookupReference(o options) (*reference, error) {
	if o.quick {
		return nil, nil
	}
	refs, err := references()
	if err != nil {
		return nil, err
	}
	r, ok := refs[o.workload][strconv.FormatUint(o.seed, 10)]
	if !ok {
		return nil, nil
	}
	return &r, nil
}

func hashFloats(xs []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func hashString(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// campaignInst is a set-up TVLA workload: order 1 on the default
// protected point, order 2 on the boolean1-masked point with RPC off.
type campaignInst struct {
	o      options
	order  int
	perSet int
	st     *design.Stack
	tgt    *sca.Target
	ref    *reference
}

// setupCampaign builds the design point and target exactly as
// scalab's newTarget and applyMasking do.
func setupCampaign(o options, perSet, order int, sb *spanBuf) (*campaignInst, error) {
	p := design.Defaults()
	p.RPC = order == 1
	p.XOnly = true
	p.Seed = o.seed
	p.TRNGSeed = o.seed + 99
	p.NoiseSigma = design.LabNoiseSigma
	if order == 2 {
		p.Masking = design.MaskingBoolean1
		p.NoiseSigma = design.DefaultNoiseSigma
		p.ResidualImbalance = 0
	}
	sb.begin("design.build")
	st, err := p.Build()
	sb.end()
	if err != nil {
		return nil, fmt.Errorf("design build: %w", err)
	}
	sb.begin("sca.target")
	tgt, err := st.Target(st.DeviceKey(o.seed))
	sb.end()
	if err != nil {
		return nil, fmt.Errorf("target: %w", err)
	}
	tgt.Workers = o.workers
	ref, err := lookupReference(o)
	if err != nil {
		return nil, err
	}
	return &campaignInst{o: o, order: order, perSet: perSet, st: st, tgt: tgt, ref: ref}, nil
}

// randKey is the random-set scalar stream scalab draws (seed + 9);
// every unit starts it afresh so units repeat bit for bit.
func (c *campaignInst) randKey() func() modn.Scalar {
	src := rng.NewDRBG(c.o.seed + 9).Uint64
	return func() modn.Scalar { return sca.AlgorithmOneScalar(c.st.Curve, src) }
}

func (c *campaignInst) run(rc runCtl) (outcome, error) {
	tvla := sca.TVLA
	if c.order == 2 {
		tvla = sca.TVLA2
	}
	randKey := c.randKey()
	if rc.started != nil {
		var once sync.Once
		draw := randKey
		randKey = func() modn.Scalar { once.Do(rc.started); return draw() }
	}
	c.tgt.Ctx, c.tgt.Progress, c.tgt.Metrics = rc.ctx, rc.progress, rc.metrics
	defer func() { c.tgt.Ctx, c.tgt.Progress, c.tgt.Metrics = nil, nil, nil }()
	res, err := tvla(c.tgt, sca.FixedPoint(c.st.Curve), c.perSet, firstIter, lastIter, randKey)
	if err != nil {
		return outcome{}, err
	}
	out := campaignOutcome(2*res.TracesPerSet, res.TCurve, res.MaxT)
	out.eventedRatio = ratio(float64(res.CyclesPerTrace-res.PrologueCyclesSkipped), float64(res.CyclesPerTrace))
	return out, nil
}

func campaignOutcome(work int, tcurve []float64, maxT float64) outcome {
	verdict := "PASS"
	if maxT > sca.TVLAThreshold {
		verdict = "LEAKS"
	}
	d := hashFloats(tcurve)
	return outcome{work: work, digest: d, verdict: verdict, maxT: maxT, twinDigest: d}
}

func (c *campaignInst) check(out outcome) error {
	if out.work != 2*c.perSet {
		return fmt.Errorf("%d traces folded, want %d", out.work, 2*c.perSet)
	}
	// At the full budget the masked point is convicted by the
	// second-order test on every seed (max|t| ≈ 11-15). The protected
	// point passes on the reference seeds (max|t| ≈ 3.3), but over its
	// ~1.9k-sample window the 4.5 threshold alone would flag about one
	// seed in a hundred by chance, so other seeds only have to stay
	// clear of gross leakage. A quick run is too small for a verdict.
	switch {
	case c.o.quick:
	case c.order == 2 && out.verdict != "LEAKS":
		return fmt.Errorf("verdict %s (max|t| = %.2f), want LEAKS", out.verdict, out.maxT)
	case c.order == 1 && out.maxT >= protectedMaxT:
		return fmt.Errorf("max|t| = %.2f on the protected point, want below %g", out.maxT, protectedMaxT)
	}
	if r := c.ref; r != nil {
		if got := fmt.Sprintf("%.2f", out.maxT); got != r.MaxT || out.verdict != r.Verdict || out.digest != r.Digest {
			return fmt.Errorf("t-curve %s (max|t| = %s, %s) differs from the reference %s (max|t| = %s, %s)",
				out.digest[:16], got, out.verdict, r.Digest[:16], r.MaxT, r.Verdict)
		}
	}
	return nil
}

// fleetInst is the set-up fleet workload.
type fleetInst struct {
	o   options
	cfg fleet.Config
	ref *reference
	// cache and noms are the traced twin's build cache and cohort
	// nominals (twin_fleet.go); fleet.Run builds its own.
	cache *design.Cache
	noms  []nominal
}

// setupFleet builds the built-in fleet config at the default loss;
// the rest of the fleet's set-up — its build cache and cohort
// nominals — happens inside fleet.Run.
func setupFleet(o options, devices int, _ *spanBuf) (instance, error) {
	cfg := fleet.HospitalFleet(devices, design.DefaultSweepLoss)
	cfg.Seed = o.seed
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ref, err := lookupReference(o)
	if err != nil {
		return nil, err
	}
	return &fleetInst{o: o, cfg: cfg, ref: ref}, nil
}

func (f *fleetInst) run(rc runCtl) (outcome, error) {
	opt := fleet.RunOptions{Workers: f.o.workers, Ctx: rc.ctx, Metrics: rc.metrics}
	if rc.progress != nil {
		opt.Progress = func(devices int) { rc.progress(devices * fleetSessionsPerDevice) }
	}
	rep, err := fleet.Run(f.cfg, opt)
	if err != nil {
		return outcome{}, err
	}
	return outcome{work: fleetSessions(rep), digest: hashString(rep.Render()), report: rep,
		twinDigest: tallyDigest(reportTallies(rep))}, nil
}

func fleetSessions(rep *fleet.Report) int {
	n := 0
	for _, c := range rep.Accum.Cohorts {
		n += int(c.Sessions + c.StormSessions)
	}
	return n
}

func (f *fleetInst) check(out outcome) error {
	if want := f.cfg.TotalDevices() * fleetSessionsPerDevice; out.work != want {
		return fmt.Errorf("%d sessions, want devices × %d = %d", out.work, fleetSessionsPerDevice, want)
	}
	if r := f.ref; r != nil && (out.digest != r.Digest || out.work != r.Sessions) {
		return fmt.Errorf("report %s (%d sessions) differs from the reference %s (%d sessions)",
			out.digest[:16], out.work, r.Digest[:16], r.Sessions)
	}
	return nil
}

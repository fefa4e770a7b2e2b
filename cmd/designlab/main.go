// Command designlab explores the paper's central claim — security is
// an extra design dimension — by sweeping a grid of design points
// (internal/design.Point) and reporting, per point, every cost axis
// the paper trades off:
//
//   - energy per authenticated session, priced from
//     retransmission-true ledgers over the point's lossy channel (the
//     number the battery actually pays);
//   - silicon area in gate equivalents, with the logic-style factor;
//   - authentication latency (computation + radio time) under loss;
//   - side-channel margin: TVLA max |t| and, optionally, the CPA
//     traces-to-disclosure count.
//
// It then emits the Pareto frontier: the points no other point beats
// on every axis at once.
//
//	designlab [-grid points.json] [-d 1,4,8] [-logic cmos,wddl,sabl]
//	          [-rpc on,off] [-masking none,boolean1] [-channel iid]
//	          [-loss 0.1] [-dist 2] [-reps 8] [-tvla 40]
//	          [-cpa 50,100,200] [-seed 1] [-workers 0] [-shards 0]
//	          [-lanes 8] [-manifest-dir DIR]
//
// Without -grid the built-in grid is the cross product of -d × -logic
// × -rpc × -masking (digit width × circuit style × algorithmic
// countermeasure × datapath masking), every point on the same
// -channel/-loss/-dist link. With -grid the points come from a JSON
// array of design points (see internal/design: unknown or
// out-of-range knobs are rejected by name).
//
// Masking is the fourth security axis: a boolean1 point carries every
// datapath word as two Boolean shares, paying ~2.1× datapath area and
// the measured two-share switching energy for first-order resistance.
// Each point is attacked with the strongest applicable tool — masked
// points face the centered-product (second-order) CPA, unmasked ones
// the plain first-order CPA — so the traces-to-disclosure column
// compares like against like.
//
// Evaluation fans out over the sharded campaign engine: every metric
// of point i derives from (seed, i) alone, so the table and frontier
// are byte-identical for any -workers or -lanes value. With
// -manifest-dir one
// run manifest is written per frontier point, carrying the full point
// JSON and its measured metrics — the provenance trail reportgen
// folds into reports.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"medsec/internal/campaign"
	"medsec/internal/cliutil"
	"medsec/internal/design"
	"medsec/internal/modn"
	"medsec/internal/obs"
	"medsec/internal/rng"
	"medsec/internal/sca"
	"medsec/internal/tabular"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("designlab: ")
	ctx, stop := cliutil.SignalContext()
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		log.Print(err)
		os.Exit(1)
	}
}

// result is the full cost vector of one evaluated design point.
type result struct {
	PMEnergyJ  float64 // one point multiplication, noise-free
	AreaGE     float64
	Completion float64 // fraction of sessions that established a key
	SessionJ   float64 // mean physical energy per session (retransmission-true)
	LatencyS   float64 // mean auth latency of completed sessions (+Inf if none)
	TVLAMaxT   float64 // NaN when the point has no constant-time target
	TVLALeaks  bool
	CPATraces  int // traces to disclosure; -1 = never succeeded; -2 = not attacked
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("designlab", flag.ContinueOnError)
	var (
		gridFile    = fs.String("grid", "", "JSON file holding an array of design points (overrides -d/-logic/-rpc)")
		dList       = fs.String("d", "1,4,8", "comma-separated MALU digit sizes for the built-in grid")
		logicList   = fs.String("logic", "cmos,wddl,sabl", "comma-separated logic styles for the built-in grid")
		rpcList     = fs.String("rpc", "on,off", "RPC settings for the built-in grid: on,off")
		maskList    = fs.String("masking", design.MaskingNone, "comma-separated masking settings for the built-in grid: none,boolean1")
		channel     = fs.String("channel", design.ChannelIID, "channel profile for the built-in grid: perfect|iid|bursty")
		loss        = fs.Float64("loss", design.DefaultSweepLoss, "channel loss rate for the built-in grid")
		dist        = fs.Float64("dist", design.DefaultDistanceM, "TX distance in meters for the built-in grid")
		reps        = fs.Int("reps", 8, "authentication sessions per point")
		tvlaN       = fs.Int("tvla", 40, "TVLA traces per set (0 disables the leakage column)")
		cpaSizes    = fs.String("cpa", "", "comma-separated CPA campaign sizes for traces-to-disclosure (empty: skip)")
		seed        = fs.Uint64("seed", 1, "campaign seed (reruns replay bit-identically)")
		workers     = fs.Int("workers", 0, "campaign workers (0 = GOMAXPROCS)")
		shards      = fs.Int("shards", 0, "reduction shards (0 = engine default)")
		lanes       = fs.Int("lanes", design.DefaultLanes, "traces per interpreter pass (1 = serial per-trace path); any value gives bit-identical results")
		manifestDir = fs.String("manifest-dir", "", "write one run manifest per frontier point into this directory")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *reps <= 0 {
		return fmt.Errorf("-reps must be positive")
	}

	pts, err := buildGrid(*gridFile, *dList, *logicList, *rpcList, *maskList, *channel, *loss, *dist)
	if err != nil {
		return err
	}
	var sizes []int
	if *cpaSizes != "" {
		if sizes, err = parseInts(*cpaSizes); err != nil {
			return fmt.Errorf("-cpa: %v", err)
		}
	}

	// Build every stack up front so an invalid point fails the run
	// before any campaign work, naming the offending point and knob.
	// The shared build cache collapses the cost when a -grid file
	// sweeps link operating points (loss, distance, seeds) over a few
	// circuit identities: each distinct hardware configuration pays
	// Point.Build once and every other grid cell gets a cheap
	// specialized copy.
	cache := design.NewCache()
	stacks := make([]*design.Stack, len(pts))
	for i := range pts {
		st, err := cache.Build(pts[i])
		if err != nil {
			return fmt.Errorf("point %d (%s): %v", i, pts[i].Name, err)
		}
		stacks[i] = st
	}

	fmt.Printf("designlab: seed=%d points=%d reps=%d tvla=%d cpa=%q\n\n",
		*seed, len(pts), *reps, *tvlaN, *cpaSizes)

	// Evaluate the grid on the sharded campaign engine: acquisition is
	// a pure function of (seed, idx) and folds are positional writes,
	// so the table is byte-identical for any worker count.
	results := make([]result, len(pts))
	sessions := make([]*design.Session, campaign.Workers(*workers))
	for w := range sessions {
		sessions[w] = design.NewSession(nil)
	}
	_, err = campaign.RunSharded(0, len(pts),
		campaign.ShardedConfig{Workers: *workers, Shards: *shards, Ctx: ctx},
		func(idx int) (int, error) { return idx, nil },
		func(worker, idx int, _ int) (result, error) {
			return evalPoint(sessions[worker], stacks[idx], idx, *seed, *reps, *tvlaN, *lanes, sizes)
		},
		func(shard int) int { return shard },
		func(shard int, _ int, idx int, _ int, out result) error {
			results[idx] = out
			return nil
		},
		func(shard int, _ int) error { return nil },
	)
	if err != nil {
		return err
	}

	cpaOn := len(sizes) > 0
	front := frontier(results, cpaOn, *tvlaN > 0)

	t := tabular.New("point", "d", "logic", "rpc", "mask", "loss",
		"session [uJ]", "area [kGE]", "latency [ms]", "tvla max|t|", "cpa traces", "complete", "pareto")
	for i := range pts {
		p, r := &pts[i], &results[i]
		mark := ""
		if front[i] {
			mark = "*"
		}
		t.Row(p.Name, p.DigitSize, strings.ToLower(p.Logic), onOff(p.RPC),
			p.Masking,
			fmt.Sprintf("%.2f", p.Loss),
			fmt.Sprintf("%.1f", r.SessionJ*1e6),
			fmt.Sprintf("%.1f", r.AreaGE/1e3),
			fmtLatency(r.LatencyS),
			fmtTVLA(r, *tvlaN > 0),
			fmtCPA(r.CPATraces),
			fmt.Sprintf("%.0f%%", r.Completion*100),
			mark)
	}
	t.Render(os.Stdout)

	var names []string
	for i := range pts {
		if front[i] {
			names = append(names, pts[i].Name)
		}
	}
	fmt.Printf("\nPareto frontier (%d of %d points): %s\n", len(names), len(pts), strings.Join(names, ", "))
	fmt.Println("(a frontier point is beaten on no axis — energy, area, latency, leakage — by any other)")

	if *manifestDir != "" {
		if err := os.MkdirAll(*manifestDir, 0o755); err != nil {
			return err
		}
		for i := range pts {
			if !front[i] {
				continue
			}
			if err := writeFrontierManifest(*manifestDir, i, &pts[i], &results[i], *seed, *tvlaN > 0, cpaOn, fs); err != nil {
				return err
			}
		}
		fmt.Printf("wrote %d frontier manifest(s) to %s\n", len(names), *manifestDir)
	}
	return nil
}

// buildGrid loads -grid, or crosses the -d × -logic × -rpc × -masking
// axes over the shared channel settings.
func buildGrid(gridFile, dList, logicList, rpcList, maskList, channel string, loss, dist float64) ([]design.Point, error) {
	if gridFile != "" {
		pts, err := design.LoadGrid(gridFile)
		if err != nil {
			return nil, err
		}
		// Grid files may omit "name"; anonymous points still need a
		// stable label for the table, the frontier line and the
		// manifest filename.
		for i := range pts {
			if pts[i].Name == "" {
				pts[i].Name = fmt.Sprintf("point_%02d", i)
			}
		}
		return pts, nil
	}
	ds, err := parseInts(dList)
	if err != nil {
		return nil, fmt.Errorf("-d: %v", err)
	}
	styles := splitList(logicList)
	var rpcs []bool
	for _, r := range splitList(rpcList) {
		switch r {
		case "on":
			rpcs = append(rpcs, true)
		case "off":
			rpcs = append(rpcs, false)
		default:
			return nil, fmt.Errorf("-rpc: %q (want on or off)", r)
		}
	}
	masks := splitList(maskList)
	for _, m := range masks {
		if m != design.MaskingNone && m != design.MaskingBoolean1 {
			return nil, fmt.Errorf("-masking: %q (want %s or %s)", m, design.MaskingNone, design.MaskingBoolean1)
		}
	}
	if len(ds) == 0 || len(styles) == 0 || len(rpcs) == 0 || len(masks) == 0 {
		return nil, fmt.Errorf("empty grid axis")
	}
	var pts []design.Point
	for _, d := range ds {
		for _, sty := range styles {
			for _, rpc := range rpcs {
				for _, msk := range masks {
					p := design.Defaults()
					p.Channel = channel
					p.Loss = loss
					p.DistanceM = dist
					p.DigitSize = d
					p.Logic = sty
					p.RPC = rpc
					p.Masking = msk
					p.Name = fmt.Sprintf("d%d-%s-rpc_%s", d, strings.ToLower(sty), onOff(rpc))
					if msk != design.MaskingNone {
						// Masked scenario convention (same as scalab
						// -masking): the residual CSWAP-select imbalance
						// is a control-path leak Boolean masking cannot
						// cover, so it moves out of the way and the
						// leakage columns measure the datapath alone.
						p.ResidualImbalance = 0
						p.Name += "-" + msk
					}
					pts = append(pts, p)
				}
			}
		}
	}
	return pts, nil
}

// evalPoint measures one design point's full cost vector, running its
// sessions on sess. Every substream derives from (seed, idx), so the
// result is a pure function of the point and the seed.
func evalPoint(sess *design.Session, st *design.Stack, idx int, seed uint64, reps, tvlaN, lanes int, cpaSizes []int) (result, error) {
	var r result
	key := st.DeviceKey(seed)
	pm, err := st.MeasurePointMul(key, design.MixSeed(seed, idx, 1))
	if err != nil {
		return r, err
	}
	r.PMEnergyJ = pm.EnergyJ
	r.AreaGE = st.Area.TotalGE()

	// Sessions over the point's channel: the energy billed is the
	// physical one — every retransmitted frame, every ACK — with the
	// computation priced at THIS point's measured point-mul energy,
	// not the paper's d=4 constant.
	completed := 0
	var sumJ, sumLat float64
	for rep := 0; rep < reps; rep++ {
		sseed := design.MixSeed(seed, idx, 100+rep)
		dev, rdr, err := st.Parties(sseed ^ 0xC0FFEE)
		if err != nil {
			return r, err
		}
		out, err := sess.Run(st, dev, rdr, sseed)
		if err != nil {
			return r, err
		}
		eJ, latS := st.Price(out, pm)
		sumJ += eJ
		if out.Completed {
			completed++
			sumLat += latS
		}
	}
	r.SessionJ = sumJ / float64(reps)
	r.Completion = float64(completed) / float64(reps)
	if completed > 0 {
		r.LatencyS = sumLat / float64(completed)
	} else {
		r.LatencyS = math.Inf(1)
	}

	// Side-channel margin. Points without a constant-time target (the
	// double-and-add strawman) skip the lab work and score worst on
	// the security axis.
	r.TVLAMaxT = math.NaN()
	r.CPATraces = -2
	tgt, err := st.Target(key)
	if err != nil {
		return r, nil
	}
	if tvlaN > 0 {
		tgt.Workers = 1
		tgt.Lanes = lanes
		src := rng.NewDRBG(design.MixSeed(seed, idx, 3)).Uint64
		gen := func() modn.Scalar { return sca.AlgorithmOneScalar(st.Curve, src) }
		tv, err := sca.TVLA(tgt, sca.FixedPoint(st.Curve), tvlaN, 160, 157, gen)
		if err != nil {
			return r, err
		}
		r.TVLAMaxT, r.TVLALeaks = tv.MaxT, tv.Leaks
	}
	if len(cpaSizes) > 0 {
		tgt2, err := st.Target(key)
		if err != nil {
			return r, nil
		}
		tgt2.Workers = 1
		tgt2.Lanes = lanes
		// Each point faces the strongest applicable attack: first-order
		// CPA cannot see through Boolean shares (the first moment is
		// mask-free by construction), so masked points are attacked with
		// the centered-product second-order distinguisher instead.
		var opt sca.CPAOptions
		if st.Masked() {
			opt.Preprocess = sca.PreprocessCenteredProduct
		}
		n, _, err := sca.TracesToSuccess(tgt2, cpaSizes, 4, opt,
			rng.NewDRBG(design.MixSeed(seed, idx, 7)).Uint64)
		if err != nil {
			return r, err
		}
		r.CPATraces = n
	}
	return r, nil
}

// security maps a result onto the single maximized Pareto axis:
// traces-to-disclosure when the CPA column is on (never-disclosed =
// +Inf), otherwise the negated TVLA max |t| (less leakage is better).
// Points with no constant-time target score -Inf — a key-dependent
// instruction stream loses the security axis outright.
func security(r *result, cpaOn, tvlaOn bool) float64 {
	if r.CPATraces == -2 && math.IsNaN(r.TVLAMaxT) {
		return math.Inf(-1)
	}
	if cpaOn {
		if r.CPATraces < 0 {
			return math.Inf(1)
		}
		return float64(r.CPATraces)
	}
	if tvlaOn {
		return -r.TVLAMaxT
	}
	return 0
}

// frontier marks the non-dominated points: a dominates b when a is no
// worse on every axis (energy, area, latency minimized; security
// maximized) and strictly better on at least one.
func frontier(rs []result, cpaOn, tvlaOn bool) []bool {
	dominates := func(a, b *result) bool {
		sa, sb := security(a, cpaOn, tvlaOn), security(b, cpaOn, tvlaOn)
		if a.SessionJ > b.SessionJ || a.AreaGE > b.AreaGE || a.LatencyS > b.LatencyS || sa < sb {
			return false
		}
		return a.SessionJ < b.SessionJ || a.AreaGE < b.AreaGE || a.LatencyS < b.LatencyS || sa > sb
	}
	front := make([]bool, len(rs))
	for i := range rs {
		front[i] = true
		for j := range rs {
			if j != i && dominates(&rs[j], &rs[i]) {
				front[i] = false
				break
			}
		}
	}
	return front
}

// writeFrontierManifest records one frontier point as a run manifest:
// environment, flag set, the point's full JSON, and its cost vector.
func writeFrontierManifest(dir string, idx int, p *design.Point, r *result, seed uint64, tvlaOn, cpaOn bool, fs *flag.FlagSet) error {
	reg := obs.New()
	reg.Counter("designlab_frontier_points").Inc()
	reg.Gauge("designlab_session_energy_j").Set(r.SessionJ)
	reg.Gauge("designlab_area_ge").Set(r.AreaGE)
	reg.Gauge("designlab_auth_latency_s").Set(r.LatencyS)
	reg.Gauge("designlab_completion_rate").Set(r.Completion)
	reg.Gauge("designlab_pm_energy_j").Set(r.PMEnergyJ)
	if tvlaOn && !math.IsNaN(r.TVLAMaxT) {
		reg.Gauge("designlab_tvla_max_t").Set(r.TVLAMaxT)
	}
	if cpaOn && r.CPATraces != -2 {
		reg.Gauge("designlab_cpa_traces").Set(float64(r.CPATraces))
	}
	m := obs.NewManifest("designlab", "frontier", seed, fs, reg)
	buf, err := json.Marshal(*p)
	if err != nil {
		return err
	}
	m.Flags["point"] = string(buf)
	name := fmt.Sprintf("frontier_%02d_%s.json", idx, sanitize(p.Name))
	return m.Write(filepath.Join(dir, name))
}

func fmtLatency(s float64) string {
	if math.IsInf(s, 1) {
		return "never"
	}
	return fmt.Sprintf("%.0f", s*1e3)
}

func fmtTVLA(r *result, on bool) string {
	if !on || math.IsNaN(r.TVLAMaxT) {
		return "-"
	}
	v := fmt.Sprintf("%.2f", r.TVLAMaxT)
	if r.TVLALeaks {
		v += " LEAKS"
	}
	return v
}

func fmtCPA(n int) string {
	switch {
	case n == -2:
		return "-"
	case n < 0:
		return "never"
	default:
		return strconv.Itoa(n)
	}
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

// sanitize maps a point name onto a safe file-name fragment.
func sanitize(s string) string {
	if s == "" {
		return "point"
	}
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '-'
		}
	}, s)
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list %q", s)
	}
	return out, nil
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

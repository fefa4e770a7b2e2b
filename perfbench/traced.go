package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"medsec/internal/obs"
	"medsec/internal/trace"
)

// The traced run attributes one unit of a workload's wall time to the
// layers named after the repository's modules. It runs:
//
//  1. the set-ups, with spans around the design build and target
//     (design.build_ms; the fleet's builds are the twin's cohort
//     builds);
//  2. one untraced unit, checked like the measured run, whose wall
//     time is the baseline for the tracing overhead, whose whole
//     resident-set high-water mark is peak_rss_mb, and whose counts —
//     the program's obs registry, sca.TVLAResult, the sample pool's
//     hit/miss deltas — give the count metrics;
//  3. the workload's traced twin (twin_campaign.go, twin_fleet.go)
//     under a runtime/pprof CPU profile, with spans recorded in memory
//     around every call into a layer; its output must equal the
//     untraced unit's;
//  4. the layer probes and primitive microbenchmarks.
//
// Each layer's self time (span minus children) over the twin's wall
// time × workers gives its share; the engine's own time (including
// idle workers) is campaign.self_share and the root's uncovered time
// unattributed_share. The CPU profile's samples, attributed to the
// innermost frame of a known package, give a second set of shares; a
// layer whose two shares differ by more than pprofTolerance is
// flagged. Spans go to <out-dir>/<workload>.spans.csv.gz and the
// profile to <out-dir>/<workload>.cpu.pprof.

// shareLayers are the layers the traced run reports shares for.
var shareLayers = []string{"design", "sca", "coproc", "power", "trace", "rng", "ec", "protocol", "link", "fleet"}

// pprofTolerance is the largest span-vs-profile share difference a
// layer may show before it is flagged.
const pprofTolerance = 0.05

// perLayerMetrics lists every metric a traced run reports, with its
// unit; metrics a workload does not exercise read 0.
var perLayerMetrics = func() []metricSpec {
	ms := []metricSpec{
		{"design.build_ms", "ms"}, {"design.buildinto_ns_per_device", "ns"}, {"design.cache_hit_rate", "ratio"},
		{"coproc.interp_us_per_trace", "us"}, {"trace.collect_us_per_trace", "us"}, {"power.noise_us_per_trace", "us"},
		{"rng.mask_draws_per_trace", "count"}, {"rng.mask_us_per_trace", "us"}, {"lightcrypto.aes_ns_per_block", "ns"},
		{"trace.accum_us_per_trace", "us"}, {"trace.merge_us", "us"}, {"sca.evented_cycle_ratio", "ratio"},
		{"campaign.useful_ratio", "ratio"}, {"campaign.batch_fill_mean", "count"}, {"campaign.pool_hit_rate", "ratio"},
		{"campaign.self_share", "ratio"},
		{"ec.ladder_us_per_mul", "us"}, {"ec.muls_per_session", "count"}, {"gf2m.mul_ns", "ns"},
		{"protocol.keygen_us_per_device", "us"}, {"protocol.session_us", "us"},
		{"link.reset_ns", "ns"}, {"link.tries_per_session", "count"}, {"link.retries_per_session", "count"},
		{"link.payload_tx_ratio", "ratio"},
		{"fleet.merge_us", "us"},
		{"unattributed_share", "ratio"},
		{"e2e.untraced_per_s", "1/s"}, {"e2e.traced_per_s", "1/s"}, {"tracing_overhead", "ratio"},
		{"pprof.flagged_layers", "count"}, {"peak_rss_mb", "MB"},
	}
	for _, l := range shareLayers {
		ms = append(ms, metricSpec{"share." + l, "ratio"}, metricSpec{"pprof." + l + "_share", "ratio"})
	}
	return ms
}()

type metricSpec struct{ name, unit string }

// layerMove re-attributes ns of self time from one layer to another.
type layerMove struct {
	from, to string
	ns       float64
}

// twinReport is what a twin measured beyond its spans.
type twinReport struct {
	workers int
	// metrics are per-layer metric values by name.
	metrics map[string]float64
	// split redistributes a layer's whole self time by fractions.
	split map[string]map[string]float64
	// moves re-attribute absolute self time.
	moves []layerMove
	// probe, when set, runs the twin's layer probes after the profiled
	// unit, adding to metrics and split.
	probe func(*twinReport) error
}

func traced(w *workload, o options, out io.Writer) (result, error) {
	setupTr := newTracer()
	sb := setupTr.buf("setup", nil)
	var inst instance
	for i := 0; i < setupRuns; i++ {
		var err error
		if inst, err = w.setup(o, w.size(o), sb); err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", w.name, err)
		}
	}
	res := result{Correct: true, Attempted: 2, Metrics: map[string]metric{}}
	fail := func(format string, args ...any) {
		res.Correct = false
		res.Failed++
		fmt.Fprintf(out, "FAILED: "+format+"\n", args...)
	}

	reg := obs.New()
	pool0 := trace.SamplePoolStats()
	runtime.GC()
	debug.FreeOSMemory()
	resetPeakRSS()
	t0, s0 := time.Now(), stolenSeconds()
	ref, err := inst.run(runCtl{metrics: reg})
	untraced := ranSince(t0, s0)
	peakRSS := peakRSSMB()
	pool := trace.SamplePoolStats()
	pool.Hits -= pool0.Hits
	pool.Misses -= pool0.Misses
	if err == nil {
		err = inst.check(ref)
	}
	if err != nil {
		fail("untraced unit: %v", err)
	}

	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return result{}, err
	}
	profPath := filepath.Join(o.outDir, w.name+".cpu.pprof")
	pf, err := os.Create(profPath)
	if err != nil {
		return result{}, err
	}
	if err := pprof.StartCPUProfile(pf); err != nil {
		pf.Close()
		return result{}, err
	}
	tr := newTracer()
	root := tr.buf("main", nil)
	t1, s1 := time.Now(), stolenSeconds()
	root.begin("unattributed")
	got, rep, twinErr := inst.twin(tr, root)
	root.end()
	tracedWall := time.Since(t1)
	tracedRan := ranSince(t1, s1)
	pprof.StopCPUProfile()
	if err := pf.Close(); err != nil {
		return result{}, err
	}
	if twinErr != nil {
		return result{}, fmt.Errorf("traced twin: %w", twinErr)
	}
	if got.digest != ref.twinDigest {
		fail("traced twin output %s differs from the untraced unit's %s", got.digest[:16], ref.twinDigest[:16])
	}
	if rep.probe != nil {
		if err := rep.probe(rep); err != nil {
			return result{}, fmt.Errorf("layer probes: %w", err)
		}
	}

	m := rep.metrics
	aesNS, mulNS := primitiveCosts()
	m["lightcrypto.aes_ns_per_block"] = aesNS
	m["gf2m.mul_ns"] = mulNS
	snap := reg.Snapshot()
	fill := reg.Histogram("campaign_batch_fill", nil)
	m["campaign.useful_ratio"] = ratio(float64(snap.Counters["campaign_folded"]), float64(snap.Counters["campaign_prepared"]))
	m["campaign.batch_fill_mean"] = ratio(fill.Sum(), float64(fill.Count()))
	m["campaign.pool_hit_rate"] = pool.HitRate()
	m["sca.evented_cycle_ratio"] = ref.eventedRatio
	m["design.cache_hit_rate"] = snap.Gauges["fleet_build_cache_hit_rate"]
	m["peak_rss_mb"] = peakRSS
	var builds []float64
	for _, t := range []*tracer{setupTr, tr} {
		for _, b := range t.bufs {
			for _, s := range b.spans {
				if s.name == "design.build" {
					builds = append(builds, float64(s.end-s.start))
				}
			}
		}
	}
	// A campaign set-up builds one stack, the fleet twin one per
	// cohort, so the median build is one Point.Build.
	m["design.build_ms"] = median(builds) / 1e6
	st := tr.stats()
	units := float64(got.work)
	if w.unitName == "traces" {
		m["trace.accum_us_per_trace"] = st["trace.accum"].perCall(1e3)
		m["trace.merge_us"] = st["trace.merge"].totalNS / 1e3
	} else {
		devices := float64(st["fleet.device"].count)
		m["design.buildinto_ns_per_device"] = ratio(st["design.buildinto"].totalNS, devices)
		m["ec.ladder_us_per_mul"] = st["ec.mul"].perCall(1e3)
		m["protocol.keygen_us_per_device"] = st["protocol.keygen"].perCall(1e3)
		m["protocol.session_us"] = st["protocol.session"].perCall(1e3)
		m["link.reset_ns"] = st["link.reset"].perCall(1)
		if ref.report != nil {
			if m["fleet.merge_us"], err = mergeCost(ref.report); err != nil {
				return result{}, err
			}
		}
	}

	lt := tr.selfTimes(map[string]int{"unattributed": rep.workers, "campaign.run": rep.workers})
	for from, dist := range rep.split {
		v, sum := lt[from], 0.0
		for _, f := range dist {
			sum += f
		}
		lt[from] = 0
		for to, f := range dist {
			lt[to] += v * f / sum
		}
	}
	for _, mv := range rep.moves {
		ns := min(mv.ns, lt[mv.from])
		lt[mv.from] -= ns
		lt[mv.to] += ns
	}
	capacity := float64(tracedWall.Nanoseconds()) * float64(rep.workers)
	m["campaign.self_share"] = lt["campaign"] / capacity
	m["unattributed_share"] = lt["unattributed"] / capacity
	m["e2e.untraced_per_s"] = units / untraced.Seconds()
	m["e2e.traced_per_s"] = units / tracedRan.Seconds()
	m["tracing_overhead"] = tracedRan.Seconds()/untraced.Seconds() - 1

	prof, err := profileShares(profPath, w.name)
	if err != nil {
		return result{}, fmt.Errorf("profile: %w", err)
	}
	spanSum := 0.0
	for _, l := range shareLayers {
		spanSum += lt[l]
	}
	fmt.Fprintf(out, "traced %s: %d %s, untraced %.2fs, traced %.2fs (overhead %+.1f%%), %d workers\n",
		w.name, got.work, w.unitName, untraced.Seconds(), tracedRan.Seconds(), 100*m["tracing_overhead"], rep.workers)
	fmt.Fprintf(out, "%-12s %10s %10s %10s %10s  %s\n", "layer", "self_s", "share", "busy", "pprof", "check")
	flagged := 0
	for _, l := range shareLayers {
		share := lt[l] / capacity
		busy := ratio(lt[l], spanSum)
		p := prof.layers[l]
		m["share."+l] = share
		m["pprof."+l+"_share"] = p
		mark := "ok"
		if d := busy - p; d > pprofTolerance || d < -pprofTolerance {
			mark = "DISAGREE"
			flagged++
		}
		fmt.Fprintf(out, "%-12s %10.3f %10.4f %10.4f %10.4f  %s\n", l, lt[l]/1e9, share, busy, p, mark)
	}
	for _, l := range []string{"campaign", "unattributed"} {
		fmt.Fprintf(out, "%-12s %10.3f %10.4f\n", l, lt[l]/1e9, lt[l]/capacity)
	}
	m["pprof.flagged_layers"] = float64(flagged)
	fmt.Fprintf(out, "profile: %.2fs of samples, %.1f%% outside the layers; flat share by package:\n", prof.totalS, 100*prof.other)
	for _, p := range prof.packages {
		fmt.Fprintf(out, "  %-40s %6.2f%%\n", p.name, 100*p.share)
	}
	n, err := tr.write(filepath.Join(o.outDir, w.name+".spans.csv.gz"))
	if err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(out, "wrote %d spans to %s and the CPU profile to %s\n", n, filepath.Join(o.outDir, w.name+".spans.csv.gz"), profPath)

	for _, ms := range perLayerMetrics {
		res.Metrics[ms.name] = metric{m[ms.name], ms.unit}
	}
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "  %-34s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	return res, nil
}

// profile is the CPU profile's view of one traced unit.
type profile struct {
	totalS float64
	// layers are per-layer shares of the samples attributed to a
	// share layer (so they sum to 1 over shareLayers).
	layers map[string]float64
	// other is the share of samples outside every share layer
	// (engine, runtime-only stacks, the tracer).
	other    float64
	packages []pkgShare
}

type pkgShare struct {
	name  string
	share float64
}

// profileShares runs `go tool pprof -traces` on the profile and
// attributes every sample to a layer by its innermost frame in a known
// package (runtime and other transparent frames defer to their
// caller), and to a package by its innermost frame.
func profileShares(path, workload string) (profile, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return profile{}, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	byLayer := map[string]float64{}
	byPkg := map[string]float64{}
	total := 0.0
	var value float64
	var frames []string
	flush := func() {
		if len(frames) == 0 {
			return
		}
		total += value
		byPkg[packageOf(frames[0])] += value
		byLayer[classify(workload, frames)] += value
		frames = frames[:0]
	}
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 || !strings.HasPrefix(line, " ") {
			continue // header lines
		}
		if len(frames) == 0 {
			v, err := parseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				continue
			}
			value = v
			frames = append(frames, fields[1])
			continue
		}
		frames = append(frames, fields[0])
	}
	flush()
	if err := sc.Err(); err != nil {
		return profile{}, err
	}
	p := profile{totalS: total, layers: map[string]float64{}}
	inLayers := 0.0
	for _, l := range shareLayers {
		inLayers += byLayer[l]
	}
	for _, l := range shareLayers {
		p.layers[l] = ratio(byLayer[l], inLayers)
	}
	p.other = ratio(total-inLayers, total)
	for name, v := range byPkg {
		p.packages = append(p.packages, pkgShare{name, v / total})
	}
	sort.Slice(p.packages, func(i, j int) bool { return p.packages[i].share > p.packages[j].share })
	if len(p.packages) > 12 {
		p.packages = p.packages[:12]
	}
	return p, nil
}

// parseDuration reads pprof's sample values ("30ms", "1.20s", "10us").
func parseDuration(s string) (float64, error) {
	for _, u := range []struct {
		suffix string
		scale  float64
	}{{"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6}, {"ms", 1e-3}, {"s", 1}} {
		if strings.HasSuffix(s, u.suffix) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(s, u.suffix), 64)
			return v * u.scale, err
		}
	}
	return 0, fmt.Errorf("not a duration: %q", s)
}

// packageOf returns a frame's package path ("medsec/internal/coproc").
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// classify attributes one sample's stack (innermost first) to a layer.
func classify(workload string, frames []string) string {
	for _, fn := range frames {
		if l := frameLayer(workload, fn); l != "" {
			return l
		}
	}
	return "other"
}

// frameLayer maps one frame to a layer, or "" when the frame is
// transparent (runtime, standard library, helpers attributed to their
// caller). The maps follow the twins' span layers: in the campaigns
// gf2m runs inside the interpreter and the Gaussian noise source is
// the power model's; in the fleet gf2m runs inside the ec ladder and
// the DRBG/AES calls belong to whoever draws.
func frameLayer(workload, fn string) string {
	pkg := strings.TrimPrefix(packageOf(fn), "medsec/internal/")
	campaignRun := workload != "fleet"
	switch pkg {
	case "main":
		// The collector's lane-sink closure is inlined into the twin's
		// scratch constructor; it is the collector's code.
		if strings.Contains(fn, "(*Collector).LaneSink") {
			return "trace"
		}
		if campaignRun {
			return "sca"
		}
		return "fleet"
	case "campaign":
		return "campaign"
	case "design", "coproc", "power", "trace", "sca", "ec", "protocol", "link", "fleet":
		if pkg == "power" && strings.Contains(fn, "CycleBaseEnergy") {
			return "trace" // the per-cycle power evaluation of the lane sink
		}
		return pkg
	case "gf2m":
		if campaignRun {
			return "coproc"
		}
		return "ec"
	case "modn":
		if campaignRun {
			return "sca"
		}
		return "protocol"
	case "rng", "lightcrypto":
		if !campaignRun {
			return ""
		}
		if strings.Contains(fn, "Gaussian") || strings.Contains(fn, "Xorshift") {
			return "power"
		}
		return "rng"
	case "radio", "battery":
		return "fleet"
	}
	return ""
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"medsec/internal/campaign"
)

// sampleEvery is the sampling interval. The workloads were sized on a
// 2-vCPU virtual machine whose hypervisor steals up to half of the
// guest's time in bursts (the steal column of /proc/stat), so a run's
// throughput is the median of many interval rates, each over the
// interval's wall time minus the time stolen from the VM in it: work
// per second the program actually ran. Over 60 units at one point in
// time, plain wall rates spread 43% (quartile distance over median),
// steal-corrected rates 6%.
//
// Memory is reported twice. peak_rss_mb is each unit's whole
// resident-set high-water mark, set-up and final merge included. It
// is not steady: the sharded engines' reorder buffers are unbounded,
// so while one worker is descheduled the other's finished traces pile
// up, and tvla-o1's unit peak ranged 15-36 MB with the host's load.
// typical_rss_mb, the median of the units' 250 ms high-water marks,
// is the steady figure a bound can hold.
const sampleEvery = 250 * time.Millisecond

// setupRuns is how many times a run sets its workload up; setup_s is
// the median.
const setupRuns = 21

// measure is the untraced run: repeated set-ups, then units of work
// until the time budget is spent, every unit checked.
func measure(w *workload, o options, out io.Writer) (result, error) {
	setups, err := setupTimes(w, o)
	if err != nil {
		return result{}, err
	}
	var (
		prog              progress
		rates, peaks, typ []float64
		attempted, failed int
		firstDigest       string
		el                time.Duration
		budget            = time.Duration(o.seconds) * time.Second
		start             = time.Now()
	)
	// A unit starts only when it is expected to end less than half a
	// unit past the budget, so a run lasts about --seconds.
	for attempted == 0 || time.Since(start)+el/2 < budget {
		// Each unit is a whole run of the workload — set-up, work and
		// final merge — from the same heap baseline, and its peak RSS
		// is the high-water mark over all of it.
		runtime.GC()
		debug.FreeOSMemory()
		resetPeakRSS()
		t0 := time.Now()
		inst, err := w.setup(o, w.size(o), nil)
		if err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		prog.record(0)
		stop := sample(&prog)
		res, err := inst.run(runCtl{progress: prog.record})
		el = time.Since(t0)
		unit := stop()
		attempted++
		if err == nil {
			err = inst.check(res)
		}
		// Every unit of one run does the same work for the same seed,
		// so every unit must reproduce the first one's output.
		if err == nil && firstDigest != "" && res.digest != firstDigest {
			err = fmt.Errorf("output %s differs from the run's first unit %s", res.digest[:16], firstDigest[:16])
		}
		if err != nil {
			failed++
			fmt.Fprintf(out, "unit %d FAILED: %v\n", attempted, err)
			continue
		}
		if firstDigest == "" {
			firstDigest = res.digest
		}
		mean := float64(res.work) / el.Seconds()
		if len(unit.rates) == 0 {
			// A unit shorter than three intervals: its mean rate and
			// whole peak stand in.
			unit.rates, unit.peaks = []float64{mean}, []float64{unit.peak}
		}
		rates = append(rates, unit.rates...)
		typ = append(typ, unit.peaks...)
		peaks = append(peaks, unit.peak)
		fmt.Fprintf(out, "unit %d: %d %s in %.3fs (wall mean %.1f, interval median %.1f %s, %.0f%% of the VM's CPU time stolen) RSS peak %.1f MB, typical %.1f MB digest=%s %s\n",
			attempted, res.work, w.unitName, el.Seconds(), mean, median(unit.rates), w.rateName,
			100*unit.stolen/(el.Seconds()*float64(runtime.NumCPU())), unit.peak, median(unit.peaks), res.digest[:16], describe(res))
	}
	med := median(rates)
	fmt.Fprintf(out, "%s: %s=%.2f (median of %d intervals) setup_s=%.4f (median of %d) peak_rss_mb=%.1f (median of %d unit peaks) typical_rss_mb=%.1f (median of %d intervals) fail_ratio=%.3f (%d/%d units failed) digest=%s\n",
		w.name, w.rateName, med, len(rates), median(setups), len(setups), median(peaks), len(peaks), median(typ), len(typ),
		float64(failed)/float64(attempted), failed, attempted, firstDigest)
	return result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"throughput_per_s": {med, "1/s"},
			"setup_s":          {median(setups), "s"},
			"typical_rss_mb":   {median(typ), "MB"},
		},
	}, nil
}

// setupTimes sets the workload up setupRuns times, each time as a run
// of it does, and cancels the unit where its set-up ends. A campaign's
// set-up — the design build and target, then sca's prologue planning
// and engine start inside sca.TVLA — ends when the campaign asks for
// its first random-set scalar. fleet.Run reports no event before its
// first device is folded, so the fleet's set-up — the config, then
// fleet.Run's build cache and cohort nominals — ends there, one
// device's sessions included.
func setupTimes(w *workload, o options) ([]float64, error) {
	ts := make([]float64, 0, setupRuns)
	for i := 0; i < setupRuns; i++ {
		runtime.GC()
		ctx, cancel := context.WithCancel(context.Background())
		var first atomic.Int64
		t0 := time.Now()
		done := func() {
			if first.CompareAndSwap(0, int64(time.Since(t0))) {
				cancel()
			}
		}
		inst, err := w.setup(o, w.size(o), nil)
		if err == nil {
			_, err = inst.run(runCtl{ctx: ctx, started: done, progress: func(int) { done() }})
		}
		cancel()
		if err != nil && !errors.Is(err, campaign.ErrInterrupted) {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		if first.Load() == 0 {
			return nil, fmt.Errorf("%s set-up: the unit never started", w.name)
		}
		ts = append(ts, time.Duration(first.Load()).Seconds())
	}
	return ts, nil
}

// progress is the running unit's latest progress event: the work
// done and when it was reported.
type progress struct {
	mu sync.Mutex
	n  int
	at time.Time
}

func (p *progress) record(n int) {
	now := time.Now()
	p.mu.Lock()
	p.n, p.at = n, now
	p.mu.Unlock()
}

func (p *progress) load() (int, time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n, p.at
}

// samples are one unit's per-interval figures.
type samples struct {
	// rates are work rates between consecutive ticks' progress events,
	// over the events' own timestamps (not the ticks', so they are not
	// quantized to the engine's fold-batch granularity) less the time
	// stolen from the VM in the interval, shared over its CPUs.
	rates []float64
	// peaks are the resident-set high-water marks of the same
	// intervals, in MiB.
	peaks []float64
	// peak is the high-water mark over the whole unit: from the reset
	// before its set-up to its end, every interval included.
	peak float64
	// stolen is the CPU time the hypervisor took from the VM over the
	// sampled intervals, summed over its CPUs, in seconds.
	stolen float64
}

// stolenSeconds reads the VM's cumulative stolen CPU time (all CPUs)
// from /proc/stat; 0 where the kernel does not report it.
func stolenSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / userHZ
}

// userHZ is the /proc/stat tick rate (USER_HZ, 100 on Linux).
const userHZ = 100

// sample reads the progress event and the resident-set high-water mark
// every sampleEvery, resetting the mark after each read, until the
// returned stop function is called; stop waits for the sampler and
// returns every interval after the first (set-up and the engine's
// ramp-up, which setup_s covers), and the whole unit's peak.
func sample(p *progress) (stop func() samples) {
	quit := make(chan struct{})
	result := make(chan samples)
	go func() {
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		var s samples
		prevN, prevT := p.load()
		prevSteal := stolenSeconds()
		for i := 0; ; i++ {
			select {
			case <-quit:
				s.peak = max(s.peak, peakRSSMB())
				result <- s
				return
			case <-tick.C:
				n, t := p.load()
				stolen := stolenSeconds()
				peak := peakRSSMB()
				resetPeakRSS()
				s.peak = max(s.peak, peak)
				ran := t.Sub(prevT).Seconds() - (stolen-prevSteal)/float64(runtime.NumCPU())
				if i > 0 && n > prevN && ran > 0 {
					s.rates = append(s.rates, float64(n-prevN)/ran)
					s.peaks = append(s.peaks, peak)
					s.stolen += stolen - prevSteal
				}
				prevN, prevT, prevSteal = n, t, stolen
			}
		}
	}()
	return func() samples {
		close(quit)
		return <-result
	}
}

func describe(r outcome) string {
	if r.verdict == "" {
		return ""
	}
	return fmt.Sprintf("max|t|=%.2f %s", r.maxT, r.verdict)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// resetPeakRSS clears the process's resident-set high-water mark, so
// the next peakRSSMB reads the peak since this call. Where the kernel
// does not support the reset the mark stays the process's.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the resident-set high-water mark in MiB: VmHWM, or the
// process's peak from getrusage where /proc is unavailable.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// printStamp writes the provenance line every result carries.
func printStamp(out io.Writer, o options) {
	fmt.Fprintf(out, "stamp: workload=%s seed=%d trace=%d quick=%t go=%s cpu=%q nproc=%d gomaxprocs=%d workers=%d git=%s\n",
		o.workload, o.seed, o.trace, o.quick, runtime.Version(), cpuModel(), runtime.NumCPU(),
		runtime.GOMAXPROCS(0), o.workers, o.gitSHA)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// runAll runs every workload in a child process of its own, so peak
// RSS, GC state and set-up cost do not leak between workloads, and
// prints one row per workload with its metrics by name.
func runAll(o options, args []string, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	printStamp(stdout, o)
	var failures []string
	rows := make([]string, 0, len(workloads))
	for _, w := range workloads {
		child := append(append([]string(nil), args...), "--workload", w.name)
		cmd := exec.Command(exe, child...)
		var buf bytes.Buffer
		cmd.Stdout = io.MultiWriter(stdout, &buf)
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", w.name, err))
			continue
		}
		res, err := lastResult(buf.Bytes())
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", w.name, err))
			continue
		}
		rows = append(rows, formatRow(w, res))
		if !res.Correct {
			failures = append(failures, w.name+": output check failed")
		}
	}
	fmt.Fprintln(stdout, "== summary")
	for _, r := range rows {
		fmt.Fprintln(stdout, r)
	}
	if len(failures) > 0 {
		return fmt.Errorf("workloads failed: %s", strings.Join(failures, "; "))
	}
	return nil
}

// lastResult parses the JSON result on the last non-empty line.
func lastResult(b []byte) (result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			last = s
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("no result line: %w", err)
	}
	return res, nil
}

func formatRow(w *workload, res result) string {
	if _, ok := res.Metrics["throughput_per_s"]; !ok {
		keys := make([]string, 0, len(res.Metrics))
		for k := range res.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		fmt.Fprintf(&b, "%-10s", w.name)
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%.4g", k, res.Metrics[k].Value)
		}
		return b.String()
	}
	m := res.Metrics
	return fmt.Sprintf("%-10s %s=%.1f setup_s=%.4f typical_rss_mb=%.1f fail_ratio=%.3f",
		w.name, w.rateName, m["throughput_per_s"].Value, m["setup_s"].Value, m["typical_rss_mb"].Value,
		float64(res.Failed)/float64(res.Attempted))
}

// ranSince is the time since t0 that the VM actually ran: wall time
// less the time stolen from it since stolen0 (stolenSeconds), shared
// over its CPUs.
func ranSince(t0 time.Time, stolen0 float64) time.Duration {
	stolen := (stolenSeconds() - stolen0) / float64(runtime.NumCPU())
	return time.Since(t0) - time.Duration(stolen*float64(time.Second))
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"testing"
)

// benchmarkFile is the subset of BENCHMARK.json the test checks.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// layerMetricNames are the per-layer metrics the benchmark promises;
// BENCHMARK.json must declare each and every traced run must report it.
var layerMetricNames = []string{
	"design.build_ms", "design.buildinto_ns_per_device", "design.cache_hit_rate",
	"coproc.interp_us_per_trace", "trace.collect_us_per_trace", "power.noise_us_per_trace",
	"rng.mask_draws_per_trace", "rng.mask_us_per_trace", "lightcrypto.aes_ns_per_block",
	"trace.accum_us_per_trace", "trace.merge_us", "sca.evented_cycle_ratio",
	"campaign.useful_ratio", "campaign.batch_fill_mean", "campaign.pool_hit_rate", "campaign.self_share",
	"ec.ladder_us_per_mul", "ec.muls_per_session", "gf2m.mul_ns",
	"protocol.keygen_us_per_device", "protocol.session_us",
	"link.reset_ns", "link.tries_per_session", "link.retries_per_session", "link.payload_tx_ratio",
	"fleet.merge_us", "unattributed_share", "pprof.flagged_layers", "peak_rss_mb",
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

func TestBenchmarkFileMatchesBinary(t *testing.T) {
	b := loadBenchmark(t)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the binary has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if lookupWorkload(w.Name) == nil {
			t.Errorf("workload %q in BENCHMARK.json is unknown to the binary", w.Name)
		}
	}
	declared := map[string]bool{}
	for _, m := range b.PerLayer {
		declared[m.Name] = true
	}
	for _, ms := range perLayerMetrics {
		if !declared[ms.name] {
			t.Errorf("per-layer metric %s is reported but not declared in BENCHMARK.json", ms.name)
		}
	}
	for _, name := range layerMetricNames {
		if !declared[name] {
			t.Errorf("per-layer metric %s missing from BENCHMARK.json", name)
		}
	}
	e2e := map[string]bool{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = true
	}
	for _, name := range []string{"throughput_per_s", "setup_s", "typical_rss_mb"} {
		if !e2e[name] {
			t.Errorf("end-to-end metric %s missing from BENCHMARK.json", name)
		}
	}
}

func TestReferencesCoverDefaultAndHeldOutSeeds(t *testing.T) {
	refs, err := references()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, seed := range []uint64{defaultSeed, heldOutSeed} {
			r, ok := refs[w.name][strconv.FormatUint(seed, 10)]
			if !ok || len(r.Digest) != 64 {
				t.Errorf("%s: no reference output for seed %d", w.name, seed)
			}
		}
	}
}

// TestShortRunReportsEveryMetric runs every workload of BENCHMARK.json
// at smoke-test size, untraced and traced, and fails when a workload
// produces no result row or a declared metric is missing from it.
func TestShortRunReportsEveryMetric(t *testing.T) {
	b := loadBenchmark(t)
	for _, w := range b.Workloads {
		for _, trace := range []int{0, 1} {
			want := b.EndToEnd
			if trace == 1 {
				want = b.PerLayer
			}
			var stdout bytes.Buffer
			o := options{workload: w.Name, seed: defaultSeed, seconds: 1, trace: trace,
				workers: defaultWorkers(), quick: true, gitSHA: "test", outDir: t.TempDir()}
			if lookupWorkload(w.Name) == nil {
				continue // TestBenchmarkFileMatchesBinary reports it
			}
			res, err := runWorkload(o, &stdout)
			if err != nil {
				t.Errorf("%s trace=%d: %v\n%s", w.Name, trace, err, stdout.String())
				continue
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%t failed=%d attempted=%d\n%s",
					w.Name, trace, res.Correct, res.Failed, res.Attempted, stdout.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, BENCHMARK.json declares %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%d: metric %s missing", w.Name, trace, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s unit %q, BENCHMARK.json says %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				}
				if trace == 0 && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

func TestBadFlagsFail(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "fleet", "--trace", "2"},
		{"--workload", "fleet", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 {
			t.Errorf("run(%q) succeeded, want a failure", args)
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%q) printed %q, want no result", args, stdout.String())
		}
	}
}

package fleet

import (
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"medsec/internal/design"
)

// testFleet is a small heterogeneous fleet exercising every moving
// part: multiple cohorts, channel jitter, age spread, a storm, and a
// batteryless cohort.
func testFleet(devices int) Config {
	cfg := HospitalFleet(devices, 0.1)
	cfg.SessionsPerDevice = 2
	cfg.Storm = &StormConfig{Sessions: 1, LossBoost: 0.25}
	cfg.Seed = 42
	return cfg
}

// reports must be compared by rendered bytes AND accumulator state.
func sameReport(t *testing.T, label string, a, b *Report) {
	t.Helper()
	if !reflect.DeepEqual(a.Accum, b.Accum) {
		t.Fatalf("%s: accumulators differ", label)
	}
	if a.Render() != b.Render() {
		t.Fatalf("%s: rendered reports differ", label)
	}
}

// TestDeterminismMatrix pins the engine's core contract across the
// full matrix the issue names: workers {1, 2, 7} × internal shard
// splits {1, 4} all produce byte-identical reports.
func TestDeterminismMatrix(t *testing.T) {
	cfg := testFleet(10)
	ref, err := Run(cfg, RunOptions{Workers: 1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 7} {
		for _, shards := range []int{1, 4} {
			rep, err := Run(cfg, RunOptions{Workers: workers, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			sameReport(t, "workers/shards variation", ref, rep)
		}
	}
}

// TestCrossProcessMergeByteIdentical pins the scale-out contract: any
// cross-process partition of the device range, merged through shard
// artifacts on disk, reproduces the single-process report byte for
// byte — including uneven 3-way splits.
func TestCrossProcessMergeByteIdentical(t *testing.T) {
	cfg := testFleet(11)
	single, err := Run(cfg, RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, shardCount := range []int{2, 3} {
		paths := make([]string, 0, shardCount)
		for s := 0; s < shardCount; s++ {
			rep, err := Run(cfg, RunOptions{
				Workers: 1 + s, Shards: 1 + s, // runtime knobs must not matter
				ShardIndex: s, ShardCount: shardCount,
			})
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "shard-"+string(rune('a'+s))+".ckpt")
			if err := WriteShard(path, rep, shardCount); err != nil {
				t.Fatal(err)
			}
			paths = append(paths, path)
		}
		// Merge in reversed path order: order independence is part of
		// the contract.
		rev := make([]string, len(paths))
		for i, p := range paths {
			rev[len(paths)-1-i] = p
		}
		merged, err := MergeShards(rev)
		if err != nil {
			t.Fatal(err)
		}
		sameReport(t, "cross-process merge", single, merged)
	}
}

// TestShardRangesAndCoverage pins the shard-partition refusals: gaps,
// overlaps, and config drift are errors, not silent misfolds.
func TestShardRangesAndCoverage(t *testing.T) {
	cfg := testFleet(6)
	dir := t.TempDir()
	write := func(name string, shardIndex, shardCount int, c Config) string {
		rep, err := Run(c, RunOptions{ShardIndex: shardIndex, ShardCount: shardCount})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := WriteShard(path, rep, shardCount); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.ckpt", 0, 2, cfg)
	b := write("b.ckpt", 1, 2, cfg)
	if _, err := MergeShards([]string{a, b}); err != nil {
		t.Fatalf("clean 2-way merge failed: %v", err)
	}
	if _, err := MergeShards([]string{a}); err == nil {
		t.Fatal("merge accepted incomplete coverage")
	}
	if _, err := MergeShards([]string{a, a}); err == nil {
		t.Fatal("merge accepted overlapping shards")
	}
	drift := cfg
	drift.Seed = 43
	c := write("c.ckpt", 1, 2, drift)
	if _, err := MergeShards([]string{a, c}); err == nil {
		t.Fatal("merge accepted shards from different configs")
	}
}

// TestRunRefusesBadShardSelection: the library call must refuse what
// fleetlab's -shard parser refuses, naming the field, instead of
// simulating nonexistent devices, returning an empty range, or
// silently running the whole fleet.
func TestRunRefusesBadShardSelection(t *testing.T) {
	for _, tc := range []struct {
		index, count int
		field        string
	}{
		{-1, 2, "ShardIndex"},
		{5, 2, "ShardIndex"},
		{3, 0, "ShardIndex"},
		{0, -1, "ShardCount"},
	} {
		rep, err := Run(testFleet(8), RunOptions{Workers: 1, ShardIndex: tc.index, ShardCount: tc.count})
		if err == nil {
			t.Errorf("shard %d/%d: ran devices [%d, %d), want an error", tc.index, tc.count, rep.From, rep.To)
			continue
		}
		if !strings.Contains(err.Error(), "RunOptions."+tc.field) {
			t.Errorf("shard %d/%d: error %q does not name %s", tc.index, tc.count, err, tc.field)
		}
	}
}

// TestMergeRefusalsNameFileAndField pins the diagnostics of every
// MergeShards refusal: each error must name the offending shard
// file(s), the device interval in dispute, and — for config drift —
// the differing config field. A bare "gap or overlap" costs the
// operator of a 40-shard campaign an afternoon of header dumps.
func TestMergeRefusalsNameFileAndField(t *testing.T) {
	cfg := testFleet(6)
	dir := t.TempDir()
	write := func(name string, shardIndex, shardCount int, c Config) string {
		rep, err := Run(c, RunOptions{ShardIndex: shardIndex, ShardCount: shardCount})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := WriteShard(path, rep, shardCount); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// A 3-way partition of the 6-device fleet: [0,2), [2,4), [4,6).
	s0 := write("s0.ckpt", 0, 3, cfg)
	s1 := write("s1.ckpt", 1, 3, cfg)
	s2 := write("s2.ckpt", 2, 3, cfg)
	// And a 2-way partition of the same fleet for overlaps: [0,3).
	h0 := write("h0.ckpt", 0, 2, cfg)

	wantErr := func(what string, paths []string, fragments ...string) {
		t.Helper()
		_, err := MergeShards(paths)
		if err == nil {
			t.Fatalf("%s: merge succeeded", what)
		}
		for _, f := range fragments {
			if !strings.Contains(err.Error(), f) {
				t.Errorf("%s: error %q does not name %q", what, err, f)
			}
		}
	}

	// Overlap: the duplicated shard and the one it collides with are
	// both named, with the colliding range.
	wantErr("duplicate shard", []string{s0, s1, s1, s2}, "s1.ckpt", "overlapping", "[2, 4)")
	// Overlap across partitions: h0 [0,3) collides with s1 [2,4).
	wantErr("cross-partition overlap", []string{s0, s1, s2, h0}, "h0.ckpt", "s0.ckpt", "overlapping")
	// Gap in the middle names the missing interval and the shard that
	// starts after it.
	wantErr("middle gap", []string{s0, s2}, "gap", "[2, 4)", "s2.ckpt")
	// Gap at the tail names the last shard present.
	wantErr("tail gap", []string{s0, s1}, "gap", "[4, 6)", "s1.ckpt")
	// Foreign config names both files and the drifted field.
	drift := cfg
	drift.Seed = 99
	d1 := write("d1.ckpt", 1, 3, drift)
	wantErr("config drift", []string{s0, d1, s2}, "d1.ckpt", "s0.ckpt", `"seed"`, "99")
	// The reference shard is whichever file comes first: drift is
	// symmetric.
	wantErr("config drift reversed", []string{d1, s0, s2}, "s0.ckpt", "d1.ckpt", `"seed"`)
}

// TestAccumMergeAssociativeOrderIndependent pins the algebra the
// shard machinery relies on, directly on accumulators.
func TestAccumMergeAssociativeOrderIndependent(t *testing.T) {
	cfg := testFleet(9)
	parts := make([]*Accum, 3)
	for s := 0; s < 3; s++ {
		rep, err := Run(cfg, RunOptions{ShardIndex: s, ShardCount: 3})
		if err != nil {
			t.Fatal(err)
		}
		parts[s] = rep.Accum
	}
	orders := [][]int{{0, 1, 2}, {2, 0, 1}, {1, 2, 0}}
	var ref *Accum
	for _, ord := range orders {
		m := newAccum(cfg)
		for _, s := range ord {
			if err := m.Merge(parts[s]); err != nil {
				t.Fatal(err)
			}
		}
		if ref == nil {
			ref = m
		} else if !reflect.DeepEqual(stripFloatSums(ref), stripFloatSums(m)) {
			t.Fatalf("merge order %v changed the accumulator", ord)
		}
	}
	// Associativity: (p0 ⊕ p1) ⊕ p2 == p0 ⊕ (p1 ⊕ p2).
	left := newAccum(cfg)
	for _, s := range []int{0, 1} {
		if err := left.Merge(parts[s]); err != nil {
			t.Fatal(err)
		}
	}
	if err := left.Merge(parts[2]); err != nil {
		t.Fatal(err)
	}
	bc := newAccum(cfg)
	for _, s := range []int{1, 2} {
		if err := bc.Merge(parts[s]); err != nil {
			t.Fatal(err)
		}
	}
	right := newAccum(cfg)
	if err := right.Merge(parts[0]); err != nil {
		t.Fatal(err)
	}
	if err := right.Merge(bc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripFloatSums(left), stripFloatSums(right)) {
		t.Fatal("accumulator merge is not associative")
	}
}

// stripFloatSums zeroes the only order-sensitive field (the latency
// histogram's float Sum, which reports never read) so DeepEqual tests
// the exact-merge contract.
func stripFloatSums(a *Accum) *Accum {
	buf, err := json.Marshal(a)
	if err != nil {
		panic(err)
	}
	c := &Accum{}
	if err := json.Unmarshal(buf, c); err != nil {
		panic(err)
	}
	for _, co := range c.Cohorts {
		co.Latency.Sum = 0
	}
	return c
}

// TestKillAndResume interrupts a fleet run mid-flight via context
// cancellation, then resumes from the checkpoint and pins the final
// report byte-identical to an uninterrupted run.
func TestKillAndResume(t *testing.T) {
	cfg := testFleet(10)
	ref, err := Run(cfg, RunOptions{Workers: 2, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "fleet.ckpt")

	ctx, cancel := context.WithCancel(context.Background())
	devices := 0
	_, err = Run(cfg, RunOptions{
		Workers: 2, Shards: 2,
		Ctx:             ctx,
		CheckpointPath:  ckpt,
		CheckpointEvery: 2,
		Progress: func(done int) {
			devices = done
			if done >= 4 {
				cancel() // kill mid-campaign
			}
		},
	})
	if err == nil {
		t.Fatal("interrupted run returned no error")
	}
	if devices >= 10 {
		t.Fatalf("interrupt landed after the full run (%d devices)", devices)
	}

	resumed, err := Run(cfg, RunOptions{
		Workers: 2, Shards: 2,
		CheckpointPath:  ckpt,
		CheckpointEvery: 2,
		Resume:          true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sameReport(t, "kill-and-resume", ref, resumed)

	// Resuming with a drifted config must be refused.
	drift := cfg
	drift.Seed++
	if _, err := Run(drift, RunOptions{
		Workers: 2, Shards: 2, CheckpointPath: ckpt, CheckpointEvery: 2, Resume: true,
	}); err == nil {
		t.Fatal("resume accepted a checkpoint from a different config")
	}
}

// TestCacheEffectiveness pins the perf core's premise on a real fleet:
// device count scales, distinct builds do not.
func TestCacheEffectiveness(t *testing.T) {
	cfg := testFleet(16)
	rep, err := Run(cfg, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cs := rep.CacheStats
	// 4 cohorts + storm variants share base identities (loss is a
	// specialization knob), so the distinct builds stay in single
	// digits regardless of fleet size.
	if cs.Size > 8 {
		t.Fatalf("distinct builds = %d for a 4-cohort fleet; cache is not sharing", cs.Size)
	}
	if cs.HitRate() < 0.7 {
		t.Fatalf("cache hit rate %.2f; expected the overwhelming majority of builds to hit", cs.HitRate())
	}
}

// TestConfigValidation covers the refusals.
func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Cohorts = nil },
		func(c *Config) { c.Cohorts[0].Name = "" },
		func(c *Config) { c.Cohorts[1].Name = c.Cohorts[0].Name },
		func(c *Config) { c.Cohorts[0].Devices = 0 },
		func(c *Config) { c.Cohorts[0].Point.Loss = 3 },
		func(c *Config) { c.Cohorts[0].SpecYears = -1 },
		func(c *Config) { c.SessionsPerDevice = 0 },
		func(c *Config) { c.Storm.Sessions = 0 },
		func(c *Config) { c.Storm.LossBoost = 2 },
		func(c *Config) {
			c.Cohorts[0].Point.Channel = design.ChannelPerfect
			c.Cohorts[0].Point.Loss = 0
			c.Cohorts[0].LossJitter = 0.1
		},
	}
	for i, mut := range bad {
		cfg := testFleet(8)
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("mutation %d validated", i)
		}
	}
	if err := testFleet(8).Validate(); err != nil {
		t.Fatalf("test fleet invalid: %v", err)
	}
}

package fleet

import (
	"context"
	"fmt"
	"math"

	"medsec/internal/battery"
	"medsec/internal/campaign"
	"medsec/internal/design"
	"medsec/internal/obs"
	"medsec/internal/protocol"
)

// RunOptions are the runtime knobs of one engine invocation — they
// shape how the work executes, never what it computes, so none of
// them is part of the experiment identity.
type RunOptions struct {
	// Workers is the acquisition pool size (<= 0: GOMAXPROCS).
	Workers int
	// Shards is the internal reduction shard count (<= 0:
	// campaign.DefaultShards). Because the fleet accumulator is
	// integer-exact, results are bit-identical across shard counts,
	// not merely rounding-equal.
	Shards int
	// ShardIndex/ShardCount select a cross-process slice: this
	// invocation simulates the ShardIndex-th of ShardCount contiguous
	// device blocks (0/0 or 0/1 means the whole fleet); Run refuses
	// any other index outside [0, ShardCount).
	ShardIndex, ShardCount int
	// Metrics, Ctx, Progress follow campaign.ShardedConfig semantics.
	Metrics  *obs.Registry
	Ctx      context.Context
	Progress func(done int)
	// CheckpointPath + CheckpointEvery enable periodic crash-safe
	// checkpoints; Resume continues from an existing checkpoint file
	// at CheckpointPath.
	CheckpointPath  string
	CheckpointEvery int
	Resume          bool
}

// deviceRange resolves the global device index range this invocation
// owns, refusing a shard selection that names no slice of the fleet: a
// negative count, or an index outside [0, ShardCount) (ShardCount 0
// meaning one slice, the whole fleet).
func (o RunOptions) deviceRange(total int) (lo, hi int, err error) {
	if o.ShardCount < 0 {
		return 0, 0, fmt.Errorf("fleet: RunOptions.ShardCount %d is negative", o.ShardCount)
	}
	if n := max(o.ShardCount, 1); o.ShardIndex < 0 || o.ShardIndex >= n {
		return 0, 0, fmt.Errorf("fleet: RunOptions.ShardIndex %d out of range [0, %d) for ShardCount %d",
			o.ShardIndex, n, o.ShardCount)
	}
	if o.ShardCount <= 1 {
		return 0, total, nil
	}
	block := (total + o.ShardCount - 1) / o.ShardCount
	lo = o.ShardIndex * block
	hi = lo + block
	if hi > total {
		hi = total
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi, nil
}

// nominals measures each cohort's nominal point-mul cost once,
// serially, in cohort order — a pure function of the config. One
// noise-free point multiplication on the cohort's design point prices
// the computation of every session of every device in the cohort.
func nominals(cfg Config, cache *design.Cache) ([]design.Measurement, error) {
	out := make([]design.Measurement, len(cfg.Cohorts))
	for i, co := range cfg.Cohorts {
		st, err := cache.Build(co.Point)
		if err != nil {
			return nil, err
		}
		key := st.DeviceKey(design.MixSeed(cfg.Seed, i, 7))
		if out[i], err = st.MeasurePointMul(key, design.MixSeed(cfg.Seed, i, 8)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// lab is one worker's pooled state: the pooled link session, and the
// stack buffers the cache specializes into (BuildInto), so the
// steady-state per-device path allocates neither a Stack nor a link.
type lab struct {
	cache *design.Cache
	sess  *design.Session
	stack design.Stack
	storm design.Stack
}

// session runs one mutual-authentication session for a device on the
// pooled link and folds its price into out. The parties persist
// across the device's sessions (keys are generated once per device,
// as on a real implant); only the channel is reborn per session.
func (l *lab) session(st *design.Stack, pm design.Measurement, dev *protocol.Tag,
	rdr *protocol.Reader, seed uint64, storm bool, out *deviceOutcome) error {
	o, err := l.sess.Run(st, dev, rdr, seed)
	if err != nil {
		return err
	}
	eJ, latS := st.Price(o, pm)
	out.energyPJ += int64(math.Round(eJ * 1e12))
	out.retries += int64(o.Retries)
	sessions, completed := &out.sessions, &out.completed
	if storm {
		sessions, completed = &out.stormSessions, &out.stormCompleted
	}
	*sessions++
	if o.Completed {
		*completed++
		out.latencyUS = append(out.latencyUS, int64(math.Round(latS*1e6)))
	} else if o.Stage == protocol.StageLink {
		out.linkAborts++
	} else {
		out.otherAborts++
	}
	return nil
}

// device simulates one device end to end: specialize the design point
// (cache hit for all but the first device of a build identity),
// generate the device's keys once, run the duty-cycle sessions plus
// the re-auth storm, then price the battery.
func (l *lab) device(cfg Config, noms []design.Measurement, idx int) (deviceOutcome, error) {
	dp := cfg.deviceParams(idx)
	if err := l.cache.BuildInto(&l.stack, dp.point); err != nil {
		return deviceOutcome{}, err
	}
	st := &l.stack
	out := deviceOutcome{cohort: dp.cohort}
	nom := noms[dp.cohort]

	dev, rdr, err := st.Parties(design.MixSeed(cfg.Seed, idx, streamParties))
	if err != nil {
		return deviceOutcome{}, err
	}

	for rep := 0; rep < cfg.SessionsPerDevice; rep++ {
		seed := design.MixSeed(cfg.Seed, idx, streamSession+rep)
		if err := l.session(st, nom, dev, rdr, seed, false, &out); err != nil {
			return deviceOutcome{}, err
		}
	}
	if cfg.Storm != nil {
		if err := l.cache.BuildInto(&l.storm, stormPoint(dp.point, cfg.Storm.LossBoost)); err != nil {
			return deviceOutcome{}, err
		}
		sst := &l.storm
		for rep := 0; rep < cfg.Storm.Sessions; rep++ {
			seed := design.MixSeed(cfg.Seed, idx, streamStorm+rep)
			if err := l.session(sst, nom, dev, rdr, seed, true, &out); err != nil {
				return deviceOutcome{}, err
			}
		}
	}

	if dp.point.Battery == design.BatteryPacemaker {
		co := cfg.Cohorts[dp.cohort]
		cell := st.Battery
		// Age-derate: self-discharge has already consumed part of the
		// cell (linear model, clamped at 90% depletion).
		derate := 1 - cell.SelfDischargePerYear*dp.ageYears
		if derate < 0.1 {
			derate = 0.1
		}
		cell.CapacityJ *= derate
		total := out.sessions + out.stormSessions
		meanJ := float64(out.energyPJ) / 1e12 / float64(total)
		lt, err := cell.SecurityLifetimeYears(battery.Workload{
			SessionsPerDay: co.SessionsPerDay,
			SessionEnergyJ: meanJ,
		})
		if err != nil {
			return deviceOutcome{}, err
		}
		if lt > lifetimeCapYears {
			lt = lifetimeCapYears
		}
		out.hasBattery = true
		out.lifetimeCY = int64(math.Round(lt * 100))
		out.outlivedSpec = dp.ageYears+lt >= co.SpecYears
	}
	return out, nil
}

// Run simulates this invocation's device range and returns its
// report. The result is bit-identical for any Workers and Shards
// (integer accumulators; campaign.RunSharded index-order folds), and
// a full-fleet report equals the merge of any cross-process shard
// partition byte for byte.
func Run(cfg Config, opt RunOptions) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lo, hi, err := opt.deviceRange(cfg.TotalDevices())
	if err != nil {
		return nil, err
	}
	cache := design.NewCache()
	noms, err := nominals(cfg, cache)
	if err != nil {
		return nil, err
	}

	workers := campaign.Workers(opt.Workers)
	labs := make([]*lab, workers)
	for w := range labs {
		labs[w] = &lab{cache: cache, sess: design.NewSession(nil)}
	}

	lay := campaign.ShardingFor(lo, hi, opt.Shards)
	accums := make([]*Accum, lay.N)

	scfg := campaign.ShardedConfig{
		Workers:  opt.Workers,
		Shards:   opt.Shards,
		Progress: opt.Progress,
		Metrics:  opt.Metrics,
		Ctx:      opt.Ctx,
	}
	if opt.CheckpointPath != "" && opt.CheckpointEvery > 0 {
		scfg.CheckpointEvery = opt.CheckpointEvery
		scfg.Checkpoint = func(cursors []int) error {
			return writeCheckpoint(opt.CheckpointPath, cfg, opt, lo, hi, lay, cursors, accums, false)
		}
	}
	if opt.Resume {
		cursors, restored, err := readCheckpoint(opt.CheckpointPath, cfg, opt, lo, hi, lay)
		if err != nil {
			return nil, err
		}
		scfg.Resume = cursors
		for s, a := range restored {
			accums[s] = a
		}
	}

	merged := newAccum(cfg)
	_, err = campaign.RunSharded(lo, hi, scfg,
		func(idx int) (int, error) { return idx, nil },
		func(w, idx int, _ int) (deviceOutcome, error) {
			return labs[w].device(cfg, noms, idx)
		},
		func(s int) *Accum {
			if accums[s] == nil {
				accums[s] = newAccum(cfg)
			}
			return accums[s]
		},
		func(_ int, acc *Accum, _ int, _ int, out deviceOutcome) error {
			acc.fold(out)
			return nil
		},
		func(_ int, acc *Accum) error { return merged.Merge(acc) },
	)
	if err != nil {
		return nil, err
	}

	if opt.Metrics != nil {
		cs := cache.Stats()
		opt.Metrics.Counter("fleet_build_cache_hits").Add(cs.Hits)
		opt.Metrics.Counter("fleet_build_cache_misses").Add(cs.Misses)
		opt.Metrics.Gauge("fleet_build_cache_hit_rate").Set(cs.HitRate())
		opt.Metrics.Counter("fleet_devices").Add(int64(hi - lo))
	}
	return &Report{Config: cfg, From: lo, To: hi, Accum: merged, CacheStats: cache.Stats()}, nil
}

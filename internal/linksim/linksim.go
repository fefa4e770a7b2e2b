// Package linksim sweeps mutual-authentication sessions across a
// (loss rate × distance) grid of lossy wireless channels and reports,
// per grid cell, what the paper's protocol-level energy rule actually
// costs on an imperfect link: completion probability, where aborted
// sessions died, the retry distribution, and the device-side energy —
// both the protocol ledger (payload bits, computation) and the full
// physical radio cost including framing, acknowledgements and every
// retransmission.
//
// The sweep runs on the deterministic campaign engine: each session's
// channel randomness derives from (seed, cell, repetition) alone, so a
// whole grid is bit-identical for any worker count and replayable from
// the seed printed by cmd/linklab.
package linksim

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"medsec/internal/campaign"
	"medsec/internal/design"
	"medsec/internal/obs"
	"medsec/internal/protocol"
)

// GridConfig parametrizes one sweep.
type GridConfig struct {
	// LossRates are the channel loss probabilities swept (one grid
	// column per value).
	LossRates []float64
	// Distances are the TX distances in meters (one grid row per
	// value) — the amplifier term of the radio model scales with d².
	Distances []float64
	// Reps is the number of sessions simulated per cell.
	Reps int
	// Point is the base design point every cell builds on: channel
	// kind (iid or bursty), ARQ policy, curve, radio model. Loss and
	// DistanceM are overridden per cell from the grid axes. The zero
	// value selects design.Defaults() on an iid channel.
	Point design.Point
	// Workers is the campaign pool size; <= 0 selects GOMAXPROCS.
	Workers int
	// Seed drives every per-session substream.
	Seed uint64
	// Progress, when non-nil, is called serially after each consumed
	// session with (done, total).
	Progress func(done, total int)
	// Ctx, when non-nil, makes the sweep interruptible: on
	// cancellation Run drains in-flight sessions and returns
	// campaign.ErrInterrupted.
	Ctx context.Context
	// Metrics, when non-nil, receives sweep instrumentation: counters
	// linksim_sessions / linksim_completed / linksim_aborts, the
	// link_* ARQ counters aggregated across every simulated session
	// (each worker's pooled design.Session reports to it), and
	// the campaign_* engine instruments. The nil default costs
	// nothing and the sweep results are bit-identical either way.
	Metrics *obs.Registry
}

// CellReport aggregates the sessions of one (loss, distance) cell.
type CellReport struct {
	Loss     float64
	Distance float64
	Sessions int
	// Completed counts sessions that established a key; the rest
	// aborted at AbortsByStage.
	Completed     int
	AbortsByStage map[string]int
	// RetryP50/RetryP99 are percentiles of the device's per-session
	// retransmission count.
	RetryP50, RetryP99 int
	// MeanLedgerJ is the mean device energy priced from the protocol
	// Ledger (payload bits at distance + computation). MeanPhyJ adds
	// the physical link overhead: framing, ACKs, and is therefore the
	// number the battery actually pays.
	MeanLedgerJ, MeanPhyJ float64
}

// CompletionRate returns the fraction of sessions that completed.
func (c *CellReport) CompletionRate() float64 {
	if c.Sessions == 0 {
		return 0
	}
	return float64(c.Completed) / float64(c.Sessions)
}

// GridReport is the full sweep outcome, cells in row-major
// (distance-major, then loss) order.
type GridReport struct {
	Cells []CellReport
	// Sessions is the total session count across the grid.
	Sessions int
}

// Run executes the sweep.
func Run(cfg GridConfig) (*GridReport, error) {
	if len(cfg.LossRates) == 0 || len(cfg.Distances) == 0 || cfg.Reps <= 0 {
		return nil, errors.New("linksim: empty grid")
	}
	base := cfg.Point
	if base == (design.Point{}) {
		base = design.Defaults()
		base.Channel = design.ChannelIID
	}
	nCells := len(cfg.Distances) * len(cfg.LossRates)
	total := nCells * cfg.Reps

	type job struct {
		cell, rep int
	}
	// Per-cell accumulators, filled in consume (serial, index order),
	// plus one built stack per cell (loss/distance overridden from the
	// grid axes; everything else from the base point).
	cells := make([]CellReport, nCells)
	stacks := make([]*design.Stack, nCells)
	retries := make([][]int, nCells)
	for i := range cells {
		di, li := i/len(cfg.LossRates), i%len(cfg.LossRates)
		pt := base
		pt.Loss = cfg.LossRates[li]
		pt.DistanceM = cfg.Distances[di]
		st, err := pt.Build()
		if err != nil {
			return nil, err
		}
		stacks[i] = st
		cells[i] = CellReport{
			Loss:          pt.Loss,
			Distance:      pt.DistanceM,
			AbortsByStage: map[string]int{},
		}
	}
	sessions := make([]*design.Session, campaign.Workers(cfg.Workers))
	for w := range sessions {
		sessions[w] = design.NewSession(cfg.Metrics)
	}

	prepare := func(idx int) (job, error) {
		return job{cell: idx / cfg.Reps, rep: idx % cfg.Reps}, nil
	}
	acquire := func(worker, idx int, j job) (design.SessionOutcome, error) {
		// Fresh parties on the worker's re-armed link: a pure function
		// of (seed, cell, rep). The registry's ARQ counters are atomic
		// adds, so their totals are the same for any worker count.
		st := stacks[j.cell]
		seed := design.MixSeed(cfg.Seed, j.cell, j.rep)
		dev, rdr, err := st.Parties(seed ^ 0xC0FFEE)
		if err != nil {
			return design.SessionOutcome{}, err
		}
		return sessions[worker].Run(st, dev, rdr, seed)
	}
	mSessions := cfg.Metrics.Counter("linksim_sessions")
	mCompleted := cfg.Metrics.Counter("linksim_completed")
	mAborts := cfg.Metrics.Counter("linksim_aborts")
	consume := func(idx int, j job, out design.SessionOutcome) (bool, error) {
		c := &cells[j.cell]
		c.Sessions++
		mSessions.Inc()
		if out.Completed {
			c.Completed++
			mCompleted.Inc()
		} else {
			c.AbortsByStage[out.Stage]++
			mAborts.Inc()
		}
		retries[j.cell] = append(retries[j.cell], out.Retries)
		st := stacks[j.cell]
		c.MeanLedgerJ += st.Radio.LedgerEnergy(out.Ledger, c.Distance, st.Costs)
		// Physical cost: every bit the device radio moved (payload +
		// framing + ACKs) plus the same computation.
		phyJ, _ := st.Price(out, design.Measurement{EnergyJ: st.Costs.PointMulJ})
		c.MeanPhyJ += phyJ
		if cfg.Progress != nil {
			cfg.Progress(idx+1, total)
		}
		return false, nil
	}

	if _, err := campaign.Run(0, total, campaign.Config{Workers: cfg.Workers, Metrics: cfg.Metrics, Ctx: cfg.Ctx}, prepare, acquire, consume); err != nil {
		return nil, err
	}

	rep := &GridReport{Sessions: total}
	for i := range cells {
		c := &cells[i]
		if c.Sessions > 0 {
			c.MeanLedgerJ /= float64(c.Sessions)
			c.MeanPhyJ /= float64(c.Sessions)
		}
		sort.Ints(retries[i])
		c.RetryP50 = percentile(retries[i], 50)
		c.RetryP99 = percentile(retries[i], 99)
	}
	rep.Cells = cells
	return rep, nil
}

// percentile returns the nearest-rank p-th percentile of sorted xs.
func percentile(xs []int, p int) int {
	if len(xs) == 0 {
		return 0
	}
	rank := (p*len(xs) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// Render formats the grid as an aligned table, one row per cell.
func (r *GridReport) Render() string {
	s := fmt.Sprintf("%8s %7s %9s %8s %8s %12s %12s  %s\n",
		"loss", "dist(m)", "complete", "retryP50", "retryP99", "ledger(uJ)", "phy(uJ)", "aborts")
	for i := range r.Cells {
		c := &r.Cells[i]
		aborts := ""
		for _, st := range []string{protocol.StageServerAuth, protocol.StageIdentification, protocol.StageLink} {
			if n := c.AbortsByStage[st]; n > 0 {
				aborts += fmt.Sprintf("%s:%d ", st, n)
			}
		}
		if aborts == "" {
			aborts = "-"
		}
		s += fmt.Sprintf("%8.3f %7.1f %8.1f%% %8d %8d %12.2f %12.2f  %s\n",
			c.Loss, c.Distance, 100*c.CompletionRate(), c.RetryP50, c.RetryP99,
			c.MeanLedgerJ*1e6, c.MeanPhyJ*1e6, aborts)
	}
	return s
}

// Package design is the single construction point for the simulated
// medical-device stack. The paper's thesis is that security adds an
// extra design dimension spanning four layers — protocol, algorithm,
// architecture, circuit — and a Point captures one coordinate in that
// space: every knob the repo's layers expose, in one validated struct.
//
// Build() turns a Point into a Stack: the coproc timing model, the
// circuit-level power configuration, the lossy link and ARQ policy,
// the radio energy model, the battery spec and the gate-area estimate,
// plus constructors for the chip (core.Coprocessor), the side-channel
// target (sca.Target) and instrumented authentication sessions
// (protocol over link). Every cmd and example constructs its stack
// through this package, so a design-space explorer (cmd/designlab) can
// sweep grids of Points on the same code path the single-point tools
// use.
package design

import (
	"fmt"
	"strings"

	"medsec/internal/area"
	"medsec/internal/battery"
	"medsec/internal/coproc"
	"medsec/internal/core"
	"medsec/internal/ec"
	"medsec/internal/gf2m"
	"medsec/internal/link"
	"medsec/internal/modn"
	"medsec/internal/power"
	"medsec/internal/radio"
	"medsec/internal/rng"
	"medsec/internal/sca"
)

// Channel profiles (protocol layer).
const (
	// ChannelPerfect is the lossless pre-link wire.
	ChannelPerfect = "perfect"
	// ChannelIID drops frames independently at the Loss rate.
	ChannelIID = "iid"
	// ChannelBursty adds a Gilbert–Elliott burst state on top of the
	// i.i.d. loss.
	ChannelBursty = "bursty"
)

// Microcode variants (algorithm layer).
const (
	// MicrocodeLadder is the Montgomery ladder (constant operation
	// flow; the paper's choice).
	MicrocodeLadder = "ladder"
	// MicrocodeDoubleAndAdd is the key-dependent strawman the timing
	// and SPA experiments attack.
	MicrocodeDoubleAndAdd = "double-and-add"
	// MicrocodeAtomic is the Giraud–Verneuil side-channel-atomic
	// double-and-add (arXiv:1002.4569): every ladder step executes the
	// same uniform instruction block, so SPA sees a single shape class
	// where MicrocodeDoubleAndAdd spells out the key bits.
	MicrocodeAtomic = "atomic"
)

// Masking countermeasures (architecture layer).
const (
	// MaskingNone runs the datapath on raw values.
	MaskingNone = "none"
	// MaskingBoolean1 enables first-order Boolean masking of the
	// datapath (coproc.CPU.Masked): every register and RAM word is
	// carried as two shares refreshed from the device TRNG, so
	// first-order statistics go flat and evaluation must move to the
	// second-order attacks (sca.TVLA2, centered-product CPA).
	MaskingBoolean1 = "boolean1"
)

// Battery specs (platform).
const (
	// BatteryPacemaker is the paper's 20 kJ pacemaker cell with a 1%
	// security budget.
	BatteryPacemaker = "pacemaker"
	// BatteryNone disables lifetime accounting (externally powered or
	// frequently recharged platforms).
	BatteryNone = "none"
)

// Shared defaults. These are THE values; cmds must take their flag
// defaults from here (enforced by the flag-drift lint in the repo
// root) instead of re-declaring literals that then diverge.
const (
	// DefaultDigitSize is the calibrated MALU digit width (d = 4).
	DefaultDigitSize = 4
	// DefaultClockHz is the prototype's 847.5 kHz clock.
	DefaultClockHz = power.DefaultClockHz
	// DefaultVdd is the prototype's 1.0 V core supply.
	DefaultVdd = 1.0
	// DefaultNoiseSigma is the chip's intrinsic measurement-noise
	// floor (fraction of nominal per-cycle energy).
	DefaultNoiseSigma = 0.03
	// LabNoiseSigma is the oscilloscope noise floor of the Fig. 4
	// white-box lab setup (see sca.LabNoiseSigma).
	LabNoiseSigma = sca.LabNoiseSigma
	// DefaultResidualImbalance is the paper's "slight unbalances are
	// still present in the layout".
	DefaultResidualImbalance = 0.004
	// DefaultDistanceM is the body-area link distance (radio.LocalRange).
	DefaultDistanceM = radio.LocalRange
	// DefaultARQMaxTries / DefaultARQRetryBudget mirror link.DefaultARQ().
	DefaultARQMaxTries    = 8
	DefaultARQRetryBudget = 64
	// DefaultLossGrid / DefaultDistGrid are the linklab sweep axes.
	DefaultLossGrid = "0,0.1,0.3,0.5"
	DefaultDistGrid = "0.5,2"
	// DefaultSweepLoss is the nominal ward-channel loss rate the
	// design-space sweeps evaluate sessions under.
	DefaultSweepLoss = 0.1
	// DefaultBitrateBps is the nominal body-area radio bitrate used to
	// convert PHY bits into air time for latency accounting.
	DefaultBitrateBps = 250e3
	// DefaultLanes is the lane-batched acquisition width (traces per
	// interpreter pass, sca.Target.Lanes). The benchlab lane sweep on
	// the reference host saturates by 8 lanes — decode/dispatch
	// amortization has flattened while the per-lane state still fits
	// the cache comfortably — and results are bit-identical at any
	// width, so the default sits at the saturation point.
	DefaultLanes = 8
	// DefaultCheckpointInterval is the number of acquired traces
	// between periodic campaign-checkpoint writes (the lab CLIs'
	// -checkpoint-interval flag): frequent enough that a killed
	// paper-scale campaign loses minutes, not hours, rare enough that
	// the atomic write-fsync-rename never shows up in the throughput
	// accounting.
	DefaultCheckpointInterval = 1000
)

// Point is one coordinate in the design space: every knob of the
// simulated stack, grouped by the paper's four layers. The zero value
// is not valid; start from Defaults().
type Point struct {
	// Name is an optional label for sweep output and manifests.
	Name string `json:"name,omitempty"`

	// Protocol layer.
	Channel     string  `json:"channel"`
	Loss        float64 `json:"loss"`
	DistanceM   float64 `json:"distance_m"`
	ARQMaxTries int     `json:"arq_max_tries"`
	// ARQRetryBudget caps cumulative retransmissions per session; 0
	// disables retries, negative means unbounded (link semantics).
	ARQRetryBudget int `json:"arq_retry_budget"`

	// Algorithm layer.
	Curve     string `json:"curve"`
	Microcode string `json:"microcode"`
	RPC       bool   `json:"rpc"`
	XOnly     bool   `json:"x_only"`

	// Architecture layer.
	DigitSize int     `json:"digit_size"`
	ClockHz   float64 `json:"clock_hz"`
	VddV      float64 `json:"vdd_v"`
	// Masking selects the datapath masking countermeasure: MaskingNone
	// or MaskingBoolean1. Masking changes no architectural value and no
	// cycle count — only the datapath's switching statistics (and its
	// area/energy bill).
	Masking string `json:"masking"`

	// Circuit layer.
	Logic              string  `json:"logic"`
	BalancedMux        bool    `json:"balanced_mux"`
	DataDepClockGating bool    `json:"data_dep_clock_gating"`
	InputIsolation     bool    `json:"input_isolation"`
	GlitchFree         bool    `json:"glitch_free"`
	ResidualImbalance  float64 `json:"residual_imbalance"`
	NoiseSigma         float64 `json:"noise_sigma"`

	// Platform.
	Battery string `json:"battery"`
	// Seed seeds the circuit noise generator; TRNGSeed seeds the
	// on-chip mask TRNG (and the sca trace schedule).
	Seed     uint64 `json:"seed"`
	TRNGSeed uint64 `json:"trng_seed"`
}

// Defaults returns the paper's prototype as a design point: protected
// CMOS at 847.5 kHz / 1 V, d = 4, Montgomery ladder with RPC, K-163,
// a perfect body-area link at 1 m, and the pacemaker cell. Its power
// configuration equals power.ProtectedChip(1) exactly.
func Defaults() Point {
	return Point{
		Channel:        ChannelPerfect,
		Loss:           0,
		DistanceM:      DefaultDistanceM,
		ARQMaxTries:    DefaultARQMaxTries,
		ARQRetryBudget: DefaultARQRetryBudget,

		Curve:     "K-163",
		Microcode: MicrocodeLadder,
		RPC:       true,
		XOnly:     false,

		DigitSize: DefaultDigitSize,
		ClockHz:   DefaultClockHz,
		VddV:      DefaultVdd,
		Masking:   MaskingNone,

		Logic:              "CMOS",
		BalancedMux:        true,
		DataDepClockGating: false,
		InputIsolation:     true,
		GlitchFree:         true,
		ResidualImbalance:  DefaultResidualImbalance,
		NoiseSigma:         DefaultNoiseSigma,

		Battery:  BatteryPacemaker,
		Seed:     1,
		TRNGSeed: 1,
	}
}

// maxDigitSize mirrors the coproc interpreter's bound (shift tables
// are stack arrays sized for d <= 61).
const maxDigitSize = 61

// Validate checks every knob and names the offending one in the
// error, so a bad grid file points at the exact field to fix.
func (p Point) Validate() error {
	if err := p.validateSpecialization(); err != nil {
		return err
	}
	if _, err := curveByName(p.Curve); err != nil {
		return err
	}
	switch p.Microcode {
	case MicrocodeLadder, MicrocodeDoubleAndAdd, MicrocodeAtomic:
	default:
		return fmt.Errorf("design: Microcode %q unknown (want %q, %q or %q)",
			p.Microcode, MicrocodeLadder, MicrocodeDoubleAndAdd, MicrocodeAtomic)
	}
	switch p.Masking {
	case MaskingNone, MaskingBoolean1:
	default:
		return fmt.Errorf("design: Masking %q unknown (want %q or %q)",
			p.Masking, MaskingNone, MaskingBoolean1)
	}
	if p.DigitSize < 1 || p.DigitSize > maxDigitSize {
		return fmt.Errorf("design: DigitSize %d out of range [1, %d]", p.DigitSize, maxDigitSize)
	}
	if p.ClockHz <= 0 {
		return fmt.Errorf("design: ClockHz %v must be positive", p.ClockHz)
	}
	if p.VddV <= 0 {
		return fmt.Errorf("design: VddV %v must be positive", p.VddV)
	}
	if _, err := power.ParseStyle(p.Logic); err != nil {
		return fmt.Errorf("design: Logic %q unknown (want CMOS, WDDL or SABL)", p.Logic)
	}
	if p.ResidualImbalance < 0 {
		return fmt.Errorf("design: ResidualImbalance %v must be non-negative", p.ResidualImbalance)
	}
	if p.NoiseSigma < 0 {
		return fmt.Errorf("design: NoiseSigma %v must be non-negative", p.NoiseSigma)
	}
	switch p.Battery {
	case BatteryPacemaker, BatteryNone:
	default:
		return fmt.Errorf("design: Battery %q unknown (want %q or %q)",
			p.Battery, BatteryPacemaker, BatteryNone)
	}
	return nil
}

// validateSpecialization checks exactly the knobs buildIdentity
// normalizes away — the ones a cached build identity cannot vouch
// for. It is the only validation the Cache hot path pays: a few
// comparisons instead of the full Validate walk, with the identical
// error text when a knob is out of range.
func (p Point) validateSpecialization() error {
	switch p.Channel {
	case ChannelPerfect, ChannelIID, ChannelBursty:
	default:
		return fmt.Errorf("design: Channel %q unknown (want %q, %q or %q)",
			p.Channel, ChannelPerfect, ChannelIID, ChannelBursty)
	}
	if p.Loss < 0 || p.Loss > 1 {
		return fmt.Errorf("design: Loss %v out of range [0, 1]", p.Loss)
	}
	if p.Channel == ChannelPerfect && p.Loss != 0 {
		return fmt.Errorf("design: Loss %v on a %q Channel (set Channel to %q or %q)",
			p.Loss, ChannelPerfect, ChannelIID, ChannelBursty)
	}
	if p.DistanceM <= 0 {
		return fmt.Errorf("design: DistanceM %v must be positive", p.DistanceM)
	}
	if p.ARQMaxTries < 1 {
		return fmt.Errorf("design: ARQMaxTries %d must be at least 1", p.ARQMaxTries)
	}
	return nil
}

func curveByName(name string) (*ec.Curve, error) {
	switch strings.ToUpper(name) {
	case "K-163", "K163":
		return ec.K163(), nil
	case "B-163", "B163":
		return ec.B163(), nil
	default:
		return nil, fmt.Errorf("design: Curve %q unknown (want K-163 or B-163)", name)
	}
}

// Stack is one built design point: the fully parameterized simulated
// stack, ready to mint chips, side-channel targets and instrumented
// link sessions. A Stack is cheap — construction defers the expensive
// pieces (CPU state, power model) to the minting methods, so sweeps
// can Build thousands of points.
type Stack struct {
	Point   Point
	Curve   *ec.Curve
	Program coproc.ProgramOptions
	Timing  coproc.Timing
	Power   power.Config
	Channel link.ChannelConfig
	ARQ     link.ARQConfig
	Radio   radio.Model
	Costs   radio.ComputeCosts
	Battery battery.Cell
	Area    area.Estimate
}

// Build validates the point and assembles its stack.
func (p Point) Build() (*Stack, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	curve, err := curveByName(p.Curve)
	if err != nil {
		return nil, err
	}
	style, err := power.ParseStyle(p.Logic)
	if err != nil {
		return nil, err
	}
	s := &Stack{
		Point: p,
		Curve: curve,
		Program: coproc.ProgramOptions{
			RPC:   p.RPC,
			XOnly: p.XOnly,
		},
		Timing: coproc.Timing{DigitSize: p.DigitSize, MulOverhead: 2, SingleCycle: 1},
		Power: power.Config{
			Style:              style,
			BalancedMux:        p.BalancedMux,
			DataDepClockGating: p.DataDepClockGating,
			InputIsolation:     p.InputIsolation,
			GlitchFree:         p.GlitchFree,
			ResidualImbalance:  p.ResidualImbalance,
			NoiseSigma:         p.NoiseSigma,
			Seed:               p.Seed,
			ClockHz:            p.ClockHz,
			Vdd:                p.VddV,
		},
		ARQ:   link.DefaultARQ(),
		Radio: radio.DefaultModel(),
		Costs: radio.PaperCosts(),
		Area:  area.DefaultGateModel().EstimateMasked(p.DigitSize, style.AreaFactor(), maskAreaFactor(p.Masking)),
	}
	s.ARQ.MaxTries = p.ARQMaxTries
	s.ARQ.RetryBudget = p.ARQRetryBudget
	switch p.Channel {
	case ChannelIID:
		s.Channel = link.Lossy(p.Loss)
	case ChannelBursty:
		s.Channel = link.Bursty(p.Loss)
	default:
		s.Channel = link.Lossless()
	}
	if p.Battery == BatteryPacemaker {
		s.Battery = battery.PacemakerCell()
	}
	return s, nil
}

// maskAreaFactor maps the Masking knob to its datapath area multiplier.
func maskAreaFactor(masking string) float64 {
	if masking == MaskingBoolean1 {
		return area.MaskingAreaFactor
	}
	return 1
}

// Masked reports whether this point carries the datapath as Boolean
// shares.
func (s *Stack) Masked() bool { return s.Point.Masking == MaskingBoolean1 }

// MustBuild is Build for static points in tests and examples; it
// panics on an invalid point.
func (p Point) MustBuild() *Stack {
	s, err := p.Build()
	if err != nil {
		panic(err)
	}
	return s
}

// Chip mints the metered co-processor (core layer) for this point.
// Only the ladder microcode runs on the chip's fixed control store.
func (s *Stack) Chip() (*core.Coprocessor, error) {
	if s.Point.Microcode != MicrocodeLadder {
		return nil, fmt.Errorf("design: Microcode %q has no chip control store (only %q)",
			s.Point.Microcode, MicrocodeLadder)
	}
	if s.Point.Masking != MaskingNone {
		return nil, fmt.Errorf("design: the core-layer chip has no %q datapath (only %q); evaluate masked points through Target",
			s.Point.Masking, MaskingNone)
	}
	return core.New(core.Config{
		Curve:    s.Curve,
		Timing:   s.Timing,
		RPC:      s.Point.RPC,
		Power:    s.Power,
		TRNGSeed: s.Point.TRNGSeed,
	})
}

// Target mints a side-channel evaluation target holding the given
// key. The target inherits the point's program options, timing,
// power configuration and TRNG seed, and acquires lane-batched at
// DefaultLanes (campaign results are bit-identical at any lane count;
// override Lanes to re-tune); the remaining campaign-engine knobs
// (Workers, Shards, Metrics) stay at the caller's discretion.
func (s *Stack) Target(key modn.Scalar) (*sca.Target, error) {
	if s.Point.Microcode != MicrocodeLadder {
		return nil, fmt.Errorf("design: sca targets require the %q Microcode (have %q)",
			MicrocodeLadder, s.Point.Microcode)
	}
	tgt := sca.NewTarget(s.Curve, key, s.Program, s.Timing, s.Power, s.Point.TRNGSeed)
	tgt.Masked = s.Masked()
	tgt.Lanes = DefaultLanes
	return tgt, nil
}

// DeviceKey derives the Algorithm 1 device key from an explicit seed
// stream (distinct experiments deliberately use distinct key seeds).
func (s *Stack) DeviceKey(seed uint64) modn.Scalar {
	return sca.AlgorithmOneScalar(s.Curve, rng.NewDRBG(seed).Uint64)
}

// RandomScalar draws a uniform non-zero scalar from a seeded stream.
func (s *Stack) RandomScalar(seed uint64) modn.Scalar {
	return s.Curve.Order.RandNonZero(rng.NewDRBG(seed).Uint64)
}

// Ladder returns the full ladder program (with y-recovery) at this
// point's RPC setting — the microcode whose register pressure and
// cycle counts the architecture tables report.
func (s *Stack) Ladder() *coproc.Program {
	return coproc.BuildLadderProgram(coproc.ProgramOptions{RPC: s.Point.RPC})
}

// ProgramFor returns the microcode this point executes for the given
// key: the (key-independent) ladder, the key-dependent double-and-add
// strawman, or its side-channel-atomic repair.
func (s *Stack) ProgramFor(key modn.Scalar) (*coproc.Program, error) {
	switch s.Point.Microcode {
	case MicrocodeDoubleAndAdd:
		return coproc.BuildDoubleAndAddProgram(key)
	case MicrocodeAtomic:
		return coproc.BuildAtomicProgram(key)
	}
	return coproc.BuildLadderProgram(coproc.ProgramOptions{RPC: s.Point.RPC}), nil
}

// GenericField exposes the generic-arithmetic path for this point's
// field: a bit-width-agnostic GF(2^m) tower equivalent to the
// fixed-width gf2m.Element fast path the coproc interpreter uses.
// Cross-checks and security-level sweeps (internal/ecgen) build on it.
func (s *Stack) GenericField() *gf2m.Field {
	return gf2m.NISTK163Field()
}

// Measurement is one metered operation on the co-processor.
type Measurement struct {
	Cycles    int
	EnergyJ   float64
	AvgPowerW float64
	DurationS float64
}

// MeasurePointMul runs one noise-free point multiplication of the
// generator under the power meter and returns its cost. The measured
// program is the full ladder (including y-recovery) — or the
// double-and-add microcode when selected — at the point's RPC
// setting; randSeed seeds the RPC mask stream. NoiseSigma is forced
// to 0 so the reading is the chip's nominal energy, not one noisy
// sample.
func (s *Stack) MeasurePointMul(key modn.Scalar, randSeed uint64) (Measurement, error) {
	return s.measure(key, randSeed, func(model *power.Model, run func(coproc.Probe) error) (Measurement, error) {
		meter := power.NewMeter(model)
		if err := run(meter.Probe()); err != nil {
			return Measurement{}, err
		}
		return Measurement{
			Cycles:    meter.Cycles(),
			EnergyJ:   meter.EnergyJ(),
			AvgPowerW: meter.AvgPowerW(),
			DurationS: meter.DurationS(),
		}, nil
	})
}

// MeasureBreakdown is MeasurePointMul with the component-resolved
// meter: it returns the per-component energy split of one point
// multiplication. The two meters accumulate floating point in
// different orders, so callers that pin outputs must keep using the
// same meter they always did.
func (s *Stack) MeasureBreakdown(key modn.Scalar, randSeed uint64) (power.Components, int, error) {
	var comps power.Components
	var cycles int
	_, err := s.measure(key, randSeed, func(model *power.Model, run func(coproc.Probe) error) (Measurement, error) {
		bm := power.NewBreakdownMeter(model)
		if err := run(bm.Probe()); err != nil {
			return Measurement{}, err
		}
		comps, cycles = bm.Totals(), bm.Cycles()
		return Measurement{}, nil
	})
	return comps, cycles, err
}

func (s *Stack) measure(key modn.Scalar, randSeed uint64,
	meter func(model *power.Model, run func(coproc.Probe) error) (Measurement, error)) (Measurement, error) {
	prog, err := s.ProgramFor(key)
	if err != nil {
		return Measurement{}, err
	}
	pcfg := s.Power
	pcfg.NoiseSigma = 0
	model := power.NewModel(pcfg)
	return meter(model, func(probe coproc.Probe) error {
		cpu := coproc.NewCPU(s.Timing)
		cpu.Rand = rng.NewDRBG(randSeed).Uint64
		if s.Masked() {
			// The masked datapath switches both shares, so the measured
			// energy carries the real masking overhead — no fudge factor.
			// The mask stream is seeded independently of the RPC stream,
			// mirroring sca.Target's maskSeed split.
			cpu.Masked = true
			cpu.MaskRand = rng.NewDRBG(randSeed ^ 0xd1342543de82ef95).Uint64
		}
		cpu.Probe = probe
		cpu.SetOperandConstants(s.Curve.Gx, s.Curve.B, s.Curve.Gy)
		_, err := cpu.Run(prog, key)
		return err
	})
}

// MixSeed derives the per-session seed for grid cell (cell, rep) from
// a campaign seed — a SplitMix-style avalanche so neighboring cells
// get uncorrelated streams. This is the historical linksim mixer;
// design-space sweeps reuse it so their sessions match linklab's.
func MixSeed(seed uint64, cell, rep int) uint64 {
	z := seed ^ (uint64(cell) << 32) ^ uint64(rep)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

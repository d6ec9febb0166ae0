package adaqp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/quant"
	"repro/internal/timing"
)

// settings is the resolved configuration an Engine or Session runs with.
type settings struct {
	cfg         core.Config
	parts       int
	strategy    partition.Strategy
	model       *timing.CostModel // nil = DefaultCostModel
	methodCodec string            // a deprecated method's codec, used while cfg.Codec is empty
}

func defaultSettings() settings {
	return settings{cfg: core.DefaultConfig(), parts: 4, strategy: partition.Block}
}

// An Option configures an Engine at New or overrides it per Session/Run.
type Option func(*settings) error

func (s *settings) apply(opts []Option) error {
	for _, opt := range opts {
		if err := opt(s); err != nil {
			return err
		}
	}
	return s.cfg.Validate()
}

// maxParts is the most simulated devices one engine may partition a graph
// across: partitioning allocates two parts-long slices per part, and the
// paper's largest cluster has 24.
const maxParts = 1024

// WithParts sets the number of simulated devices the graph is partitioned
// across (default 4, at most 1024).
func WithParts(n int) Option {
	return func(s *settings) error {
		if n < 1 || n > maxParts {
			return fmt.Errorf("adaqp: parts %d outside [1, %d]", n, maxParts)
		}
		s.parts = n
		return nil
	}
}

// WithModel selects the GNN architecture (default GCN).
func WithModel(k ModelKind) Option {
	return func(s *settings) error {
		s.cfg.Model = k
		return nil
	}
}

// WithPartitioner selects the partitioning strategy (default block): LDG,
// HashPartition or BlockPartition.
func WithPartitioner(st Strategy) Option {
	return func(s *settings) error {
		if st != partition.LDG && st != partition.Hash && st != partition.Block {
			return fmt.Errorf("adaqp: partitioner %v is not ldg, hash or block", st)
		}
		s.strategy = st
		return nil
	}
}

// WithCostModel replaces the simulated hardware calibration.
func WithCostModel(m *CostModel) Option {
	return func(s *settings) error {
		if m == nil {
			return fmt.Errorf("adaqp: nil cost model")
		}
		s.model = m
		return nil
	}
}

// TransportSpec groups every transport-facing knob behind one option:
// which runtime backend moves bytes and with what. The zero value of every
// field is the engine default, and WithTransport replaces the whole
// transport configuration with the spec — unlike the per-knob options it
// supersedes, two WithTransport calls do not merge.
type TransportSpec struct {
	// Name selects the runtime backend (any name in Transports());
	// empty selects TransportInprocess.
	Name string
	// Workers is TransportProcSharded's worker process count, at most 64;
	// 0 uses 2, clamped to the device count. No other built-in backend
	// reads it.
	Workers int
	// Overlap is read by the sancus codec alone: its broadcasts start
	// split-phase and are waited on after the central-graph compute. The
	// roots' broadcasts are then charged as concurrent — the slowest one's
	// wire time, not the sum — and everything a Wait finds already
	// elapsed, compute and earlier broadcasts' wire time alike, is booked
	// under the Overlap phase. Payload routing is unchanged — fixed-seed
	// loss curves stay bit-identical to the blocking schedule. AdaQP's and
	// PipeGCN's overlap is their codec's own schedule and always on; every
	// other codec ignores the knob.
	Overlap bool
	// SocketDir is ignored: proc-sharded workers inherit their sockets at
	// spawn, so no backend creates a socket directory. It stays so callers
	// that still set it compile.
	SocketDir string
}

// WithTransport sets the run's transport configuration to spec.
func WithTransport(spec TransportSpec) Option {
	return func(s *settings) error {
		s.cfg.Transport = spec.Name
		s.cfg.TransportWorkers = spec.Workers
		s.cfg.TransportOverlap = spec.Overlap
		return nil
	}
}

// CodecSpec groups the message-codec selection and its per-codec knobs
// behind one option. Unlike TransportSpec, zero-valued fields keep the
// engine's current setting (every codec knob's default is non-zero), so
// a spec overrides only what it names.
type CodecSpec struct {
	// Name selects the message codec, and so the training system (any
	// name in Codecs()); empty keeps the current selection (CodecFP32).
	Name string
	// UniformBits is the width the uniform codec quantizes at: 2, 4, 8,
	// or 32 for the full-precision passthrough (default 2).
	UniformBits int
	// SancusDrift and SancusMaxStale are SANCUS's staleness controls:
	// re-broadcast when relative drift exceeds SancusDrift (default 0.05),
	// or at the latest every SancusMaxStale epochs (default 8). Set both
	// together.
	SancusDrift    float64
	SancusMaxStale int
}

// WithCodec applies the non-zero fields of spec to the run's codec
// configuration.
func WithCodec(spec CodecSpec) Option {
	return func(s *settings) error {
		if spec.Name != "" {
			s.cfg.Codec = spec.Name
		}
		if spec.UniformBits != 0 {
			// A width that does not fit is refused here: the conversion
			// would wrap 258 to a valid 2.
			b := quant.BitWidth(spec.UniformBits)
			if int(b) != spec.UniformBits {
				return fmt.Errorf("adaqp: bits %d is not a bit-width (want 2, 4, 8 or 32)", spec.UniformBits)
			}
			s.cfg.UniformBits = b
		}
		if spec.SancusDrift != 0 || spec.SancusMaxStale != 0 {
			if spec.SancusDrift == 0 || spec.SancusMaxStale == 0 {
				return fmt.Errorf("adaqp: set sancus drift and max-stale together, got %v and %d",
					spec.SancusDrift, spec.SancusMaxStale)
			}
			s.cfg.SancusDrift = spec.SancusDrift
			s.cfg.SancusMaxStale = spec.SancusMaxStale
		}
		return nil
	}
}

// WithEpochs sets the training epoch budget.
func WithEpochs(n int) Option {
	return func(s *settings) error {
		s.cfg.Epochs = n
		return nil
	}
}

// WithLayers sets the number of GNN layers (default 3).
func WithLayers(n int) Option {
	return func(s *settings) error {
		s.cfg.Layers = n
		return nil
	}
}

// WithHidden sets the hidden dimension (default 256).
func WithHidden(n int) Option {
	return func(s *settings) error {
		s.cfg.Hidden = n
		return nil
	}
}

// WithLR sets the Adam learning rate (default 0.01).
func WithLR(lr float64) Option {
	return func(s *settings) error {
		s.cfg.LR = float32(lr)
		return nil
	}
}

// WithDropout sets the dropout probability (default 0.5).
func WithDropout(p float64) Option {
	return func(s *settings) error {
		s.cfg.Dropout = float32(p)
		return nil
	}
}

// WithLambda sets the variance/time trade-off λ ∈ [0,1] of the bit-width
// assigner's bi-objective (default 0.5).
func WithLambda(l float64) Option {
	return func(s *settings) error {
		s.cfg.Lambda = l
		return nil
	}
}

// WithGroupSize sets the assigner's message group size (default 100).
func WithGroupSize(n int) Option {
	return func(s *settings) error {
		s.cfg.GroupSize = n
		return nil
	}
}

// WithReassignPeriod sets the bit-width re-assignment period in epochs
// (default 50).
func WithReassignPeriod(n int) Option {
	return func(s *settings) error {
		s.cfg.ReassignPeriod = n
		return nil
	}
}

// WithSeed sets the seed driving weight init, dropout and stochastic
// rounding (default 1).
func WithSeed(seed uint64) Option {
	return func(s *settings) error {
		s.cfg.Seed = seed
		return nil
	}
}

// WithEvalEvery sets how often validation accuracy is recorded; 0
// disables periodic evaluation (final test accuracy is always computed).
func WithEvalEvery(n int) Option {
	return func(s *settings) error {
		s.cfg.EvalEvery = n
		return nil
	}
}

// WithFaultPlan injects deterministic faults into the run: straggler
// devices (compute and/or link slowdowns), transient collective failures
// with bounded retry/backoff, and a device crash and restart. The zero
// FaultSpec injects nothing. Faults charge simulated time only — the loss
// curve, accuracies and byte ledger stay bit-identical to the fault-free
// run with the same seed, and
// the whole fault schedule derives from spec.Seed, so repeated runs and
// both transport backends see identical faults. Result.Faults reports
// what was injected.
func WithFaultPlan(spec FaultSpec) Option {
	return func(s *settings) error {
		s.cfg.Faults = spec
		return nil
	}
}

// WithEpochCallback registers fn to receive each epoch's record as
// training progresses (called once per epoch, after the codec's
// end-of-epoch protocol). The callback must not start another run on the
// same Engine.
func WithEpochCallback(fn func(EpochStat)) Option {
	return func(s *settings) error {
		s.cfg.EpochHook = fn
		return nil
	}
}

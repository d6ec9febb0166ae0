// Package core implements the paper's training systems: the Vanilla
// synchronous baseline, AdaQP (adaptive message quantization +
// central/marginal computation–communication parallelization), the
// uniform-bit-width ablations, and the staleness-based comparison systems
// PipeGCN and SANCUS — all running on one synchronous collective runtime
// with real numerics and simulated device/network timing.
package core

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/chaos"
	"repro/internal/metrics"
	"repro/internal/quant"
)

// ModelKind selects the GNN architecture.
type ModelKind int

const (
	// GCN uses self-loops + symmetric normalization (Kipf & Welling).
	GCN ModelKind = iota
	// GraphSAGE uses mean aggregation concatenated with the self
	// embedding (full-batch, Hamilton et al.).
	GraphSAGE
)

func (m ModelKind) String() string {
	if m == GraphSAGE {
		return "GraphSAGE"
	}
	return "GCN"
}

// ParseModelKind is the inverse of ModelKind.String, also accepting the
// CLI short forms ("gcn", "sage"), case-insensitively.
func ParseModelKind(s string) (ModelKind, error) {
	switch strings.ToLower(s) {
	case "gcn":
		return GCN, nil
	case "graphsage", "sage":
		return GraphSAGE, nil
	}
	return 0, fmt.Errorf("core: unknown model kind %q (want gcn or sage)", s)
}

// Config holds everything one training run needs. Defaults follow the
// paper's unified hyper-parameters (Appendix B): 3 layers, hidden 256,
// LayerNorm, Adam lr 0.01, dropout per dataset, λ = 0.5.
type Config struct {
	Model ModelKind

	Layers  int // number of GNN layers
	Hidden  int // hidden dimension
	LR      float32
	Dropout float32
	Epochs  int

	// EvalEvery controls how often validation accuracy is recorded
	// (test accuracy is always computed at the end). 0 disables.
	EvalEvery int

	// AdaQP knobs (§5.5): message group size, λ of Eqn. 12, and the
	// bit-width re-assignment period in epochs.
	GroupSize      int
	Lambda         float64
	ReassignPeriod int

	// UniformBits is the width the uniform codec quantizes at.
	UniformBits quant.BitWidth

	// SANCUS staleness: a device re-broadcasts its boundary embeddings
	// when their relative drift exceeds SancusDrift, or at the latest
	// every SancusMaxStale epochs.
	SancusDrift    float64
	SancusMaxStale int

	// Seed drives weight init, dropout, stochastic rounding and the
	// random-width ablation.
	Seed uint64

	// Codec names the message codec, which is what tells the training
	// systems apart: any name registered with RegisterCodec. Empty selects
	// CodecFP32, the Vanilla baseline.
	Codec string

	// codecFactory, when non-nil, builds the run's codec instances
	// directly, bypassing the registry lookup. It is the codec-conformance
	// harness's seam: ConformCodec trains candidate codecs — including
	// deliberately broken ones — without registering them.
	codecFactory CodecFactory

	// Transport selects the runtime backend registered with
	// RegisterTransport. Empty selects TransportInprocess.
	Transport string

	// TransportWorkers is proc-sharded's worker process count; 0 means 2,
	// clamped to the device count. No other built-in transport reads it.
	TransportWorkers int

	// TransportOverlap is read by the sancus codec alone: it starts all of
	// a layer's broadcasts split-phase, runs the central-graph compute,
	// then waits on each in turn. Every Wait charges from the common start
	// (timing.FinishDeferred), so the roots' broadcasts are charged as if
	// they ran concurrently — the slowest root's wire time, not the sum
	// the blocking schedule charges — and whatever a Wait finds already
	// elapsed since that start is recorded under timing.Overlap: the
	// compute, and the wire time earlier Waits charged. So Overlap is not
	// only compute hidden behind messages. Payload routing is unchanged,
	// so fixed-seed loss curves stay bit-identical to the blocking
	// schedule; only the simulated clocks change. AdaQP's and PipeGCN's
	// overlap is their codec's own schedule and always on; every other
	// codec ignores the knob. Off by default.
	TransportOverlap bool

	// transportFactory, when non-nil, builds the run's runtime directly,
	// bypassing the registry lookup. It is the transport-conformance
	// harness's seam, mirroring codecFactory: chaos-mode conformance
	// trains candidate backends — including deliberately broken stubs —
	// without registering them.
	transportFactory RuntimeFactory

	// faultPlan, when non-nil, is the run's fault plan in place of the one
	// materialized from Faults. It is the chaos tests' seam for plans no
	// Spec can express: a crash in epoch 0, whose CrashEpoch is Spec's
	// "no crash".
	faultPlan *chaos.FaultPlan

	// Faults declares the run's injected faults (stragglers, transient
	// collective failures, crash/restart). The zero value injects
	// nothing. Faults charge simulated time only, so the loss curve
	// stays bit-identical to the fault-free run with the same Seed.
	Faults chaos.Spec

	// EpochHook, when non-nil, receives each epoch's record as training
	// progresses (called once per epoch, from the rank-0 device goroutine,
	// after the codec's end-of-epoch protocol). It must not start another
	// run on the same Deployment.
	EpochHook func(metrics.EpochStat)
}

// DefaultConfig returns the paper's unified training configuration.
func DefaultConfig() Config {
	return Config{
		Model:          GCN,
		Layers:         3,
		Hidden:         256,
		LR:             0.01,
		Dropout:        0.5,
		Epochs:         200,
		EvalEvery:      5,
		GroupSize:      100,
		Lambda:         0.5,
		ReassignPeriod: 50,
		UniformBits:    quant.B2,
		SancusDrift:    0.05,
		SancusMaxStale: 8,
		Seed:           1,
	}
}

// maxTransportWorkers is the most worker processes a run may ask
// proc-sharded for.
const maxTransportWorkers = 64

// Validate checks the configuration (see validate) and that the selected
// codec and transport are registered.
func (c Config) Validate() error {
	if err := c.validate(); err != nil {
		return err
	}
	if c.Codec != "" {
		if _, err := LookupCodec(c.Codec); err != nil {
			return err
		}
	}
	if c.Transport != "" {
		if _, err := LookupTransport(c.Transport); err != nil {
			return err
		}
	}
	return nil
}

// validate checks every field against its range and fills nothing:
// DefaultConfig is the one table of defaults, and every caller starts
// from it. Each error names the field and the value training would use.
func (c Config) validate() error {
	switch lr := float64(c.LR); {
	case c.Model != GCN && c.Model != GraphSAGE:
		return fmt.Errorf("core: model kind %d is not gcn or sage", int(c.Model))
	case c.Layers < 1:
		return fmt.Errorf("core: layers %d must be >= 1", c.Layers)
	case c.Hidden < 1:
		return fmt.Errorf("core: hidden %d must be >= 1", c.Hidden)
	case !(lr > 0) || math.IsInf(lr, 1):
		return fmt.Errorf("core: lr %v is not a positive finite float32", c.LR)
	case !(c.Dropout >= 0 && c.Dropout < 1):
		return fmt.Errorf("core: dropout %v outside [0, 1)", c.Dropout)
	case c.Epochs < 1:
		return fmt.Errorf("core: epochs %d must be >= 1", c.Epochs)
	case c.EvalEvery < 0:
		return fmt.Errorf("core: eval-every %d must be >= 0", c.EvalEvery)
	case c.GroupSize < 1:
		return fmt.Errorf("core: group size %d must be >= 1", c.GroupSize)
	case !(c.Lambda >= 0 && c.Lambda <= 1):
		return fmt.Errorf("core: lambda %v outside [0, 1]", c.Lambda)
	case c.ReassignPeriod < 1:
		return fmt.Errorf("core: reassign period %d must be >= 1", c.ReassignPeriod)
	case !c.UniformBits.Valid():
		return fmt.Errorf("core: bits %d is not a bit-width (want 2, 4, 8 or 32)", c.UniformBits)
	case !(c.SancusDrift > 0):
		return fmt.Errorf("core: sancus drift %v must be > 0", c.SancusDrift)
	case c.SancusMaxStale < 1:
		return fmt.Errorf("core: sancus max-stale %d must be >= 1", c.SancusMaxStale)
	case c.Seed == 0:
		return fmt.Errorf("core: seed must be non-zero, got 0")
	case c.TransportWorkers < 0 || c.TransportWorkers > maxTransportWorkers:
		return fmt.Errorf("core: workers %d outside [0, %d]", c.TransportWorkers, maxTransportWorkers)
	}
	if c.Faults.Enabled() {
		// Spec.Validate fills the fault defaults, here in c's copy only;
		// chaos.NewPlan fills them again when it materializes the plan.
		return c.Faults.Validate()
	}
	return nil
}

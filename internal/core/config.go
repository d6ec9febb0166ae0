// Package core implements the paper's training systems: the Vanilla
// synchronous baseline, AdaQP (adaptive message quantization +
// central/marginal computation–communication parallelization), the
// uniform-bit-width ablations, and the staleness-based comparison systems
// PipeGCN and SANCUS — all running on one synchronous collective runtime
// with real numerics and simulated device/network timing.
package core

import (
	"fmt"
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

// Method selects the training system.
type Method int

const (
	// Vanilla is synchronous full-precision full-graph training (§2.2).
	Vanilla Method = iota
	// AdaQP is the paper's system: adaptive quantization + overlap.
	AdaQP
	// AdaQPUniform quantizes every message at Config.UniformBits with
	// AdaQP's overlap (used for Table 2's 2-bit measurement).
	AdaQPUniform
	// AdaQPRandom samples each message's width uniformly from {2,4,8}
	// (Table 6's "Uniform" sampling scheme ablation).
	AdaQPRandom
	// PipeGCN overlaps communication with computation across iterations
	// using one-epoch-stale boundary messages (Wan et al., 2022b).
	PipeGCN
	// SANCUS avoids communication via sequential broadcasts skipped under
	// a staleness bound, with historical embeddings in between (Peng et
	// al., 2022).
	SANCUS
)

// methods is the one table behind String, Methods, ParseMethod and
// CodecForMethod, indexed by Method.
var methods = [...]struct {
	name  string // Method.String
	short string // CLI short form ParseMethod also accepts, if any
	codec string // default message codec
}{
	Vanilla:      {"Vanilla", "", CodecFP32},
	AdaQP:        {"AdaQP", "", CodecAdaptive},
	AdaQPUniform: {"AdaQP-uniform", "uniform", CodecUniform},
	AdaQPRandom:  {"AdaQP-random", "random", CodecRandom},
	PipeGCN:      {"PipeGCN", "", CodecPipeGCN},
	SANCUS:       {"SANCUS", "", CodecSancus},
}

func (m Method) String() string {
	if m < 0 || int(m) >= len(methods) {
		return fmt.Sprintf("Method(%d)", int(m))
	}
	return methods[m].name
}

// Methods lists every training system in declaration order.
func Methods() []Method {
	ms := make([]Method, len(methods))
	for i := range ms {
		ms[i] = Method(i)
	}
	return ms
}

// ParseMethod is the inverse of Method.String, also accepting the CLI
// short forms ("uniform", "random"), case-insensitively.
func ParseMethod(s string) (Method, error) {
	lower := strings.ToLower(s)
	for m, row := range methods {
		if lower == strings.ToLower(row.name) || row.short != "" && lower == row.short {
			return Method(m), nil
		}
	}
	return 0, fmt.Errorf("core: unknown method %q (want one of %v)", s, Methods())
}

// CodecForMethod returns the codec a training method uses by default.
// Config.Codec overrides it.
func CodecForMethod(m Method) (string, error) {
	if m < 0 || int(m) >= len(methods) {
		return "", fmt.Errorf("core: no codec for method %v", m)
	}
	return methods[m].codec, nil
}

// Config holds everything one training run needs. Defaults follow the
// paper's unified hyper-parameters (Appendix B): 3 layers, hidden 256,
// LayerNorm, Adam lr 0.01, dropout per dataset, λ = 0.5.
type Config struct {
	Model  ModelKind
	Method Method

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

	// UniformBits is the width used by AdaQPUniform.
	UniformBits quant.BitWidth

	// SANCUS staleness: a device re-broadcasts its boundary embeddings
	// when their relative drift exceeds SancusDrift, or at the latest
	// every SancusMaxStale epochs.
	SancusDrift    float64
	SancusMaxStale int

	// Seed drives weight init, dropout, stochastic rounding and the
	// random-width ablation.
	Seed uint64

	// Codec overrides the message codec the run uses. Empty selects the
	// Method's default (see CodecForMethod); any name registered with
	// RegisterCodec is accepted.
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

	// isolateArena makes the run use throwaway scratch arenas instead of
	// the process-wide recycled pool. Conformance training runs over
	// candidate transports set it: a backend that violates buffer
	// ownership would otherwise release aliased buffers into the shared
	// pool and corrupt every later run in the process.
	isolateArena bool

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
		Method:         Vanilla,
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

// Validate fills defaults for zero-valued fields and sanity-checks the
// configuration, including that the selected codec and transport are
// registered.
func (c *Config) Validate() error {
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

// validate fills defaults for zero-valued fields and sanity-checks.
func (c *Config) validate() error {
	if c.Layers <= 0 {
		c.Layers = 3
	}
	if c.Hidden <= 0 {
		c.Hidden = 256
	}
	if c.LR <= 0 {
		c.LR = 0.01
	}
	if c.Epochs <= 0 {
		c.Epochs = 200
	}
	if c.GroupSize <= 0 {
		c.GroupSize = 100
	}
	if c.Lambda < 0 || c.Lambda > 1 {
		return fmt.Errorf("core: lambda %v outside [0,1]", c.Lambda)
	}
	if c.ReassignPeriod <= 0 {
		c.ReassignPeriod = 50
	}
	if c.UniformBits == 0 {
		c.UniformBits = quant.B2
	}
	if !c.UniformBits.Valid() {
		return fmt.Errorf("core: invalid uniform bit-width %d", c.UniformBits)
	}
	if c.SancusDrift <= 0 {
		c.SancusDrift = 0.05
	}
	if c.SancusMaxStale <= 0 {
		c.SancusMaxStale = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.TransportWorkers < 0 {
		return fmt.Errorf("core: transport workers must be >= 0, got %d", c.TransportWorkers)
	}
	if c.Faults.Enabled() {
		if err := c.Faults.Validate(); err != nil {
			return err
		}
	}
	return nil
}

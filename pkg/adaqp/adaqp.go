// Package adaqp is the public API of the AdaQP reproduction: distributed
// full-graph GNN training with adaptive message quantization and
// computation–communication parallelization (Wan et al., MLSys 2023),
// running on an in-process simulated cluster with real numerics.
//
// The system is layered behind two seams:
//
//	Engine / Session (this package)
//	    │  functional options, per-epoch callbacks
//	    ▼
//	MessageCodec — how boundary messages are encoded and scheduled,
//	    which is what tells the training systems apart (fp32 = Vanilla,
//	    adaptive = AdaQP, uniform, random, pipegcn, sancus; extensible
//	    via RegisterCodec)
//	    ▼
//	Transport — how bytes move between devices
//	    (inprocess reference, proc-sharded; extensible via
//	    RegisterTransport)
//
// Quickstart:
//
//	ds := adaqp.MustLoadDataset("tiny", 1)
//	eng, err := adaqp.New(ds,
//	    adaqp.WithParts(4),
//	    adaqp.WithCodec(adaqp.CodecSpec{Name: adaqp.CodecAdaptive}),
//	    adaqp.WithEpochs(60))
//	if err != nil { ... }
//	res, err := eng.Run()
//
// One Engine owns one dataset and one partitioning; Sessions derived from
// it override training options while reusing the deployment, which is how
// the paper's system comparisons hold the partitioning fixed.
package adaqp

import (
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/synthetic"
	"repro/internal/timing"
	"repro/internal/wire"
)

// ModelKind selects the GNN architecture.
type ModelKind = core.ModelKind

// GNN architectures.
const (
	// GCN uses self-loops + symmetric normalization.
	GCN = core.GCN
	// GraphSAGE uses mean aggregation concatenated with self embeddings.
	GraphSAGE = core.GraphSAGE
)

// ParseModelKind is the inverse of ModelKind.String, also accepting "sage".
func ParseModelKind(s string) (ModelKind, error) { return core.ParseModelKind(s) }

// Partitioning strategies.
type Strategy = partition.Strategy

const (
	// LDG is linear deterministic greedy streaming partitioning.
	LDG = partition.LDG
	// BlockPartition splits nodes into contiguous equal blocks.
	BlockPartition = partition.Block
	// HashPartition scatters nodes pseudo-randomly.
	HashPartition = partition.Hash
)

// PartitionStats reports edge cut, balance and the central/marginal
// decomposition of a deployment.
type PartitionStats = partition.Stats

// Deployment is a dataset partitioned and wired for distributed training.
type Deployment = core.Deployment

// Dataset is a loaded graph dataset with features, labels and masks.
type Dataset = synthetic.Dataset

// LoadDataset loads a registered synthetic dataset at the given scale
// factor (1 = the registry's reference size).
func LoadDataset(name string, scale float64) (*Dataset, error) {
	return synthetic.Load(name, synthetic.Scale(scale))
}

// MustLoadDataset is LoadDataset, panicking on error.
func MustLoadDataset(name string, scale float64) *Dataset {
	return synthetic.MustLoad(name, synthetic.Scale(scale))
}

// DatasetNames lists the registered dataset names.
func DatasetNames() []string { return synthetic.Names() }

// CostModel is the simulated hardware calibration (FLOPS, bandwidth,
// latency, quantization throughput).
type CostModel = timing.CostModel

// Seconds is simulated time.
type Seconds = timing.Seconds

// DefaultCostModel returns the V100 / 100 Gbps calibration the paper's
// testbed uses. Mutate the returned struct to model other hardware.
func DefaultCostModel() *CostModel { return timing.Default() }

// Training measurements, re-exported from the metrics layer.
type (
	// Result is everything one training run produced.
	Result = metrics.RunResult
	// EpochStat is one epoch's record (loss, val accuracy, sim time).
	EpochStat = metrics.EpochStat
	// Breakdown aggregates simulated time by category.
	Breakdown = metrics.Breakdown
	// FaultStats counts a run's injected faults and recovery work.
	FaultStats = metrics.FaultStats
)

// FaultSpec declares deterministic fault injection for a run (see
// WithFaultPlan): Stragglers devices slowed by SlowFactor (compute) and/or
// LinkFactor (outgoing links), transient collective failures at FailRate
// retried up to MaxRetries times with exponential Backoff, and a device
// crash in the epoch of 0-based index CrashEpoch, which charges every
// device the lost attempt and the crashed one RestartPenalty seconds of
// downtime. The zero value injects nothing; Seed (default 1)
// drives the schedule.
type FaultSpec = chaos.Spec

// MessageCodec is the pluggable boundary-message scheme (see package
// core's docs for the contract). Custom codecs registered before New are
// selectable with WithCodec.
type MessageCodec = core.MessageCodec

// CodecFactory builds one device's codec instance for one run.
type CodecFactory = core.CodecFactory

// CodecEnv is the construction-time context a CodecFactory receives;
// ExchangeEnv is the per-device runtime context handed to codec calls. A
// custom codec that rounds stochastically draws from ExchangeEnv.Round,
// the device's rounding stream, never from Dev.Rand(), the dropout stream.
// Both are re-exported so custom codecs can be written against the
// public package alone.
type (
	CodecEnv    = core.CodecEnv
	ExchangeEnv = core.ExchangeEnv
)

// Optional codec-contract declarations, enforced by VerifyCodec:
// LossyCodec bounds the epoch-0 decode error, and WireAccountant reports
// exact wire sizes for the byte ledger (every codec must implement
// WireAccountant).
type (
	LossyCodec     = core.LossyCodec
	WireAccountant = core.WireAccountant
)

// RegisterCodec makes a message codec selectable by name.
func RegisterCodec(name string, f CodecFactory) { core.RegisterCodec(name, f) }

// LookupCodec resolves a registered codec factory (useful for wrapping or
// delegating to built-in codecs from custom ones).
func LookupCodec(name string) (CodecFactory, error) { return core.LookupCodec(name) }

// Codecs lists the registered message codecs, sorted.
func Codecs() []string { return core.CodecNames() }

// Built-in codec names, one per training system of the paper.
const (
	CodecFP32     = core.CodecFP32     // Vanilla: full-precision, synchronous (the default)
	CodecUniform  = core.CodecUniform  // AdaQP's overlap, every message at CodecSpec.UniformBits
	CodecRandom   = core.CodecRandom   // AdaQP's overlap, widths sampled from {2,4,8}
	CodecAdaptive = core.CodecAdaptive // AdaQP: adaptive widths plus overlap
	CodecPipeGCN  = core.CodecPipeGCN  // PipeGCN: one-epoch-stale boundary messages
	CodecSancus   = core.CodecSancus   // SANCUS: staleness-bounded broadcasts
)

// Transport is the device-side communication surface; Runtime launches
// one Transport per device. A RuntimeFactory builds a Runtime from a
// RuntimeSpec (device count, cost model, proc-sharded's worker process
// count).
type (
	Transport      = core.Transport
	Runtime        = core.Runtime
	RuntimeFactory = core.RuntimeFactory
	RuntimeSpec    = core.TransportSpec
)

// PendingCollective is the handle of an in-flight split-phase collective
// (Transport.StartBroadcast / StartScatter). Wait must be called exactly
// once per handle, in Start order.
type PendingCollective = core.PendingCollective

// RegisterTransport makes a runtime backend selectable by name.
func RegisterTransport(name string, f RuntimeFactory) { core.RegisterTransport(name, f) }

// LookupTransport resolves a registered runtime backend (useful for
// wrapping or delegating to built-in backends from custom ones).
func LookupTransport(name string) (RuntimeFactory, error) { return core.LookupTransport(name) }

// Transports lists the registered runtime backends, sorted.
func Transports() []string { return core.TransportNames() }

// Built-in transport names.
const (
	// TransportInprocess is the default in-process backend: one goroutine
	// per device, synchronous collectives.
	TransportInprocess = core.TransportInprocess
	// TransportProcSharded shards payload delivery across
	// TransportSpec.Workers separate OS processes (0 = 2, clamped to the
	// device count), each connected to this
	// one by a Unix-domain socket: every collective payload is serialized
	// into a length-prefixed frame and crosses a real kernel socket to the
	// source rank's worker and back before its receiver may consume it,
	// while simulated clocks stay bit-identical to the in-process
	// backend. Binaries hosting this backend must call MaybeWorker first
	// thing in main.
	TransportProcSharded = core.TransportProcSharded
)

// MaybeWorker turns the process into a proc-sharded worker when the
// backend started it as one, and then never returns. Every binary that
// runs TransportProcSharded re-executes itself for its workers, so it must
// call MaybeWorker first thing in main (or in TestMain).
func MaybeWorker() { wire.MaybeWorker() }

// TransportViolation is one conformance failure reported by
// VerifyTransport.
type TransportViolation = core.Violation

// VerifyTransport checks a runtime backend against the Transport
// collective contract (payload delivery, buffer ownership, simulated
// clock charging — including the split-phase overlap charging rule, i.e.
// that compute issued between Start and Wait hides wire time under the
// Overlap phase — and byte accounting) with parts devices, returning nil
// when it conforms. Run it against any custom backend before training on
// it.
func VerifyTransport(f RuntimeFactory, parts int) []TransportViolation {
	return core.ConformTransport(f, parts)
}

// VerifyTransportChaos is VerifyTransport's chaos mode: the collective
// contract re-verified under a matrix of fault plans (compute stragglers,
// slowed links, transient failures with retry/backoff, a device crash and
// restart). It checks that faults never corrupt payloads or buffer
// ownership, that fault charging matches the wrapped in-process reference
// clock-for-clock, that retries re-charge time but never bytes, and that a
// crashed training run's results and byte ledger equal the fault-free
// run's.
// Run it — in addition to VerifyTransport — before training on any custom
// backend that will face fault injection.
func VerifyTransportChaos(f RuntimeFactory, parts int) []TransportViolation {
	return core.ConformTransportChaos(f, parts)
}

// CodecViolation is one conformance failure reported by VerifyCodec.
type CodecViolation = core.Violation

// VerifyCodec checks a message codec (built by f, exactly as a training
// run would build it) against the codec contract with parts devices:
// decode-of-encode within the declared error bound, exact byte
// accounting against the declared wire sizes, statelessness-or-declared-
// state discipline under instance rebuilds, and fixed-seed loss-curve
// reproducibility. Run it against any custom codec before training
// with it:
//
//	f, _ := adaqp.LookupCodec("my-codec")
//	if vs := adaqp.VerifyCodec(f, 4); len(vs) > 0 { ... }
func VerifyCodec(f CodecFactory, parts int) []CodecViolation {
	return core.ConformCodec(f, parts)
}

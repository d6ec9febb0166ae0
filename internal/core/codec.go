package core

import (
	"sync"

	"repro/internal/partition"
	"repro/internal/quant"
	"repro/internal/tensor"
	"repro/internal/timing"
)

// A MessageCodec is one scheme for moving boundary messages between
// devices during training: how halo embeddings travel forward, how
// embedding gradients travel back, and how the simulated computation /
// communication schedule interleaves with those transfers. The codecs
// shipped here cover the paper's systems — full-precision all2all (fp32),
// uniform and adaptive quantization (AdaQP), random-width sampling,
// cross-iteration pipelining (PipeGCN) and staleness-bounded broadcast
// (SANCUS); new schemes register alongside them through RegisterCodec
// without touching the trainer's layer loop, and ConformCodec is the
// executable form of this contract.
//
// One codec instance serves one device for one training run; instances may
// hold mutable state (width tables, staleness caches). All cross-device
// traffic must flow through env.Dev so byte accounting and simulated
// timing stay correct.
type MessageCodec interface {
	// Name returns the registry name this codec was built under.
	Name() string
	// Forward fills xFull's halo rows ([NumLocal, NumLocal+NumHalo)) for
	// layer l from the peers' h rows and charges the layer's forward-stage
	// simulated time per the codec's schedule.
	Forward(env *ExchangeEnv, epoch, layer int, h, xFull *tensor.Matrix) error
	// Backward ships dxFull's halo-gradient rows back to their owners
	// (scatter-added into dxLocal) and charges the layer's backward-stage
	// time. Called only for layers with a backward exchange (layer > 0).
	Backward(env *ExchangeEnv, epoch, layer int, dxFull, dxLocal *tensor.Matrix) error
	// EpochEnd runs any end-of-epoch protocol — e.g. AdaQP's bit-width
	// re-assignment. Every device calls it after every epoch, so codecs may
	// use collectives here.
	EpochEnd(env *ExchangeEnv, epoch int) error
}

// StageCosts is the simulated compute cost of one layer stage (forward or
// backward) on one device, split into the central/marginal shares that
// drive AdaQP's overlap schedule (§2.2): central rows touch only local
// columns, so their computation can proceed while halo messages are in
// flight.
type StageCosts struct {
	Total, Central, Marginal timing.Seconds
}

// ExchangeEnv is the per-device runtime context handed to codec calls.
type ExchangeEnv struct {
	// Dev is this device's transport endpoint.
	Dev Transport
	// Graph is this device's local graph with halo wire index sets.
	Graph *partition.LocalGraph
	// Cfg is the run configuration (shared, read-only).
	Cfg *Config
	// Scratch is this device's hot-loop allocator (see Arena). May be nil,
	// in which case every Arena method degrades to plain allocation.
	Scratch *Arena
	// Round is this device's stochastic-rounding stream, derived from
	// (Cfg.Seed, rank) apart from Dev.Rand's dropout stream. A codec that
	// rounds stochastically draws from Round, so its draws never shift the
	// dropout masks.
	Round *tensor.RNG

	costs [][2]StageCosts // per layer, per direction
	halo  [][]int32       // lazily-built haloIdx cache, one list per peer
	sent  [2][]int32      // lazily-built sentRows cache, per direction
}

// HaloIdx returns the xFull row indices of the halo slots received from
// device p (wire order RecvFrom[p], shifted past the local block). The
// list is built once per peer and cached on the env.
func (e *ExchangeEnv) HaloIdx(p int) []int32 {
	if e.halo == nil {
		e.halo = make([][]int32, e.Graph.Parts)
	}
	if e.halo[p] == nil {
		idx := make([]int32, len(e.Graph.RecvFrom[p]))
		for i, s := range e.Graph.RecvFrom[p] {
			idx[i] = s + int32(e.Graph.NumLocal)
		}
		e.halo[p] = idx
	}
	return e.halo[p]
}

// sentRows returns, ascending, the rows of the matrix sent in direction dir
// that at least one peer receives (the union of wireRows over the peers).
// Built once per direction and cached on the env.
func (e *ExchangeEnv) sentRows(dir direction) []int32 {
	if e.sent[dir] == nil {
		marked := make([]bool, e.Graph.NumLocal+e.Graph.NumHalo)
		for p := 0; p < e.Graph.Parts; p++ {
			for _, r := range e.wireRows(dir, p) {
				marked[r] = true
			}
		}
		e.sent[dir] = []int32{}
		for r, m := range marked {
			if m {
				e.sent[dir] = append(e.sent[dir], int32(r))
			}
		}
	}
	return e.sent[dir]
}

// ranges scans every row of m this device sends in direction dir exactly
// once, however many peers receive it, and returns the ranges indexed by row
// of m. The result is arena scratch: valid until the next ranges call on
// this env, entries of unsent rows arbitrary.
func (e *ExchangeEnv) ranges(dir direction, m *tensor.Matrix) []quant.RowRange {
	ranges := e.Scratch.RowRanges(m.Rows)
	quant.RowRanges(ranges, m, e.sentRows(dir))
	return ranges
}

// ForwardCosts returns layer l's forward-stage compute costs.
func (e *ExchangeEnv) ForwardCosts(l int) StageCosts { return e.costs[l][forward] }

// BackwardCosts returns layer l's backward-stage compute costs.
func (e *ExchangeEnv) BackwardCosts(l int) StageCosts { return e.costs[l][backward] }

// CodecEnv is the construction-time context for one device's codec
// instance.
type CodecEnv struct {
	// Cfg is the validated run configuration.
	Cfg *Config
	// Locals holds every device's local graph (static topology metadata —
	// what a real system exchanges once at startup).
	Locals []*partition.LocalGraph
	// Rank is the device this instance will serve.
	Rank int
	// InDim is the input feature dimension (the layer-0 message width).
	InDim int
	// Shared carries per-run state built once and read by all devices.
	Shared *RunShared
}

// Graph returns the constructing device's local graph.
func (e *CodecEnv) Graph() *partition.LocalGraph { return e.Locals[e.Rank] }

// RunShared holds lazily-built per-run state shared across devices.
type RunShared struct {
	sancusOnce sync.Once
	sancus     *sancusTopology
}

// sancusTopo builds (once) and returns the global broadcast layout.
func (s *RunShared) sancusTopo(locals []*partition.LocalGraph) *sancusTopology {
	s.sancusOnce.Do(func() { s.sancus = buildSancusTopology(locals) })
	return s.sancus
}

// CodecFactory builds one device's codec instance for one training run.
type CodecFactory func(env *CodecEnv) (MessageCodec, error)

// ---- optional codec-contract interfaces, enforced by ConformCodec ----

// LossyCodec is implemented by codecs whose decoded epoch-0 forward
// messages differ from the sent rows. Codecs that do not implement it
// must decode epoch-0 forward messages exactly.
type LossyCodec interface {
	MessageCodec
	// ForwardErrorBound returns the worst-case per-element absolute error
	// of one decoded epoch-0 forward row whose values span [mn, mx] over
	// dim columns.
	ForwardErrorBound(mn, mx float32, dim int) float64
}

// WireAccountant reports the exact bytes a codec puts on the wire, so
// the transport's byte ledger (which drives All2AllRoundTime and the
// paper's wire-byte measurements) can be cross-checked against the wire
// format. Every codec must implement it; ConformCodec compares the
// declared sizes against the bytes the transport actually accounted.
type WireAccountant interface {
	MessageCodec
	// ForwardWireSizes returns the per-destination payload bytes of this
	// device's epoch-0, layer-0 forward exchange at message dimension dim.
	ForwardWireSizes(lg *partition.LocalGraph, dim int) []int
}

// Registry names of the built-in codecs.
const (
	CodecFP32     = "fp32"     // full-precision ring all2all (Vanilla)
	CodecUniform  = "uniform"  // uniform-width quantization + overlap
	CodecRandom   = "random"   // random-width sampling ablation
	CodecAdaptive = "adaptive" // AdaQP: traced, adaptively assigned widths
	CodecPipeGCN  = "pipegcn"  // cross-iteration staleness pipelining
	CodecSancus   = "sancus"   // staleness-bounded sequential broadcast
)

var codecRegistry = registry[CodecFactory]{kind: "codec"}

// RegisterCodec makes a message codec available under name. Registering a
// duplicate name panics.
func RegisterCodec(name string, f CodecFactory) { codecRegistry.register(name, f) }

// LookupCodec resolves a registered codec factory.
func LookupCodec(name string) (CodecFactory, error) { return codecRegistry.lookup(name) }

// CodecNames lists the registered codecs, sorted.
func CodecNames() []string { return codecRegistry.names() }

func init() {
	RegisterCodec(CodecFP32, newFP32Codec)
	RegisterCodec(CodecUniform, newQuantCodec(CodecUniform))
	RegisterCodec(CodecRandom, newQuantCodec(CodecRandom))
	RegisterCodec(CodecAdaptive, newQuantCodec(CodecAdaptive))
	RegisterCodec(CodecPipeGCN, newPipeGCNCodec)
	RegisterCodec(CodecSancus, newSancusCodec)
}

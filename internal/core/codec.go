package core

import (
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
	// ForwardWireSizes returns the per-destination payload bytes of this
	// device's epoch-0, layer-0 forward exchange at message dimension dim:
	// the sizes ConformCodec holds the transport's byte ledger (which drives
	// All2AllRoundTime and the paper's wire-byte measurements) to.
	ForwardWireSizes(lg *partition.LocalGraph, dim int) []int
	// ForwardErrorBound returns the worst-case per-element absolute error
	// of one decoded epoch-0 forward row whose values span [mn, mx] over
	// dim columns; 0 means the codec decodes exactly.
	ForwardErrorBound(mn, mx float32, dim int) float64
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
	// Pool is the Deployment's payload pool, shared with every device and
	// Run on it (see Arena). May be nil, in which case payloads are plain
	// allocations.
	Pool *Arena
	// Round is this device's stochastic-rounding stream, derived from
	// (Cfg.Seed, rank) apart from Dev.Rand's dropout stream. A codec that
	// rounds stochastically draws from Round, so its draws never shift the
	// dropout masks.
	Round *tensor.RNG

	costs [][2]StageCosts // per layer, per direction
	halo  [][]int32       // lazily-built haloIdx cache, one list per peer
	sent  [2][]int32      // lazily-built sentRows cache, per direction

	// Scratch reused across calls on this env: the exchange's per-peer
	// payload container and ranges' scan target.
	peerBufs  [][]byte
	rowRanges []quant.RowRange

	// inputRanges holds the value ranges of the layer-0 forward rows (the
	// Deployment's static ranges0); nil outside the trainer, where ranges
	// scans them.
	inputRanges []quant.RowRange
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
		lists := make([][]int32, e.Graph.Parts)
		for p := range lists {
			lists[p] = e.wireRows(dir, p)
		}
		e.sent[dir] = unionRows(e.Graph.NumLocal+e.Graph.NumHalo, lists)
	}
	return e.sent[dir]
}

// unionRows returns, ascending, the rows of an n-row matrix that at least
// one of lists names.
func unionRows(n int, lists [][]int32) []int32 {
	marked := make([]bool, n)
	for _, l := range lists {
		for _, r := range l {
			marked[r] = true
		}
	}
	rows := []int32{}
	for r, m := range marked {
		if m {
			rows = append(rows, int32(r))
		}
	}
	return rows
}

// ranges returns the value ranges of the rows of m that this device sends
// in direction dir at layer l, indexed by row of m; entries of unsent rows
// are arbitrary. Layer 0's forward rows are the input features, whose
// ranges the trainer hands over once (inputRanges, shared and read-only);
// anything else is scanned, each sent row exactly once however many peers
// receive it, into the env's scratch, valid until the next scan on this env.
func (e *ExchangeEnv) ranges(dir direction, l int, m *tensor.Matrix) []quant.RowRange {
	if dir == forward && l == 0 && e.inputRanges != nil {
		return e.inputRanges
	}
	if cap(e.rowRanges) < m.Rows {
		e.rowRanges = make([]quant.RowRange, m.Rows)
	}
	ranges := e.rowRanges[:m.Rows]
	quant.RowRanges(ranges, m, e.sentRows(dir))
	return ranges
}

// payloads returns a length-n all-nil container for staging per-peer
// payloads. It is one slice reused across exchanges on this env, which is
// safe because no transport retains it: a collective copies the refs into
// its post before it returns.
func (e *ExchangeEnv) payloads(n int) [][]byte {
	if cap(e.peerBufs) < n {
		e.peerBufs = make([][]byte, n)
	}
	p := e.peerBufs[:n]
	clear(p)
	return p
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
}

// Graph returns the constructing device's local graph.
func (e *CodecEnv) Graph() *partition.LocalGraph { return e.Locals[e.Rank] }

// CodecFactory builds one device's codec instance for one training run.
type CodecFactory func(env *CodecEnv) (MessageCodec, error)

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

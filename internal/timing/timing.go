// Package timing provides the simulated performance model that stands in
// for the paper's testbed (V100/A100 GPUs on 100 Gbps Ethernet).
//
// Why simulate: in this reproduction devices are goroutines in one process,
// so real wall-clock time reflects neither GPU arithmetic throughput nor
// network bandwidth — communication through a channel is effectively free
// and Go GEMM is orders slower than cuBLAS. All *numerics* are executed for
// real (quantization, aggregation, backprop), but *time* is charged to a
// per-device simulated clock using two analytical cost models:
//
//   - compute: FLOPs ÷ effective device throughput;
//   - network: per-message cost θ·bytes + γ (the affine cost model of
//     Sarvotham et al. that the paper's Eqn. 10 uses), with ring all2all
//     charged round by round, each round as slow as its slowest link, and
//     the gradient all-reduce charged as the cheapest textbook schedule
//     (ring, recursive doubling or Rabenseifner's), step by step under the
//     same slowest-link rule.
//
// Calibration targets V100-class compute (~8 TFLOP/s effective on GNN
// kernels) and 100 Gbps links, matching the paper's cluster. The absolute
// seconds these models print are estimates; every conclusion drawn from
// them (the tables and figures internal/experiments regenerates) is about
// ratios and orderings, which the affine model preserves.
package timing

import "fmt"

// Seconds is simulated time.
type Seconds float64

// CostModel holds the calibration constants.
type CostModel struct {
	// FLOPs per second a device sustains on dense GEMM.
	DenseFLOPS float64
	// FLOPs per second on sparse aggregation (SpMM is memory-bound, so
	// its effective rate is much lower).
	SparseFLOPS float64
	// Elements per second for quantize/de-quantize kernels (simple linear
	// maps; bandwidth-bound).
	QuantRate float64
	// Link bandwidth in bytes/second (θ = 1/Bandwidth per pair unless
	// overridden by PairTheta).
	Bandwidth float64
	// Fixed per-message latency γ in seconds.
	Latency float64
	// Optional per-device-pair overrides of θ (seconds per byte),
	// keyed by [src][dst]. Nil means uniform 1/Bandwidth.
	PairTheta [][]float64
}

// Default returns the V100 + 100 Gbps calibration used across experiments.
//
// Latency is not wire latency but the effective per-message software
// overhead of the paper's setup: without GPUDirect RDMA every message is
// staged through host memory (D2H copy, kernel launch, TCP send), which
// the paper calls out in §1 and which dominates small quantized messages —
// it is why the authors' 2-bit transfers still take ~0.1 s (their Table 2)
// rather than the microseconds raw bytes would suggest.
func Default() *CostModel {
	return &CostModel{
		DenseFLOPS:  8e12,   // effective, not peak, for 256-wide GNN GEMMs
		SparseFLOPS: 6e11,   // SpMM is memory-bound
		QuantRate:   1.2e11, // elements/s for the (de)quantization kernels
		Bandwidth:   100e9 / 8,
		Latency:     1e-3,
	}
}

// Theta returns the per-byte cost of the src→dst link.
func (c *CostModel) Theta(src, dst int) float64 {
	if c.PairTheta != nil {
		return c.PairTheta[src][dst]
	}
	return 1 / c.Bandwidth
}

// Gamma returns the fixed latency of one message.
func (c *CostModel) Gamma() float64 { return c.Latency }

// TransferTime returns the simulated time to move `bytes` from src to dst.
func (c *CostModel) TransferTime(src, dst, bytes int) Seconds {
	if bytes == 0 {
		return 0
	}
	return Seconds(c.Theta(src, dst)*float64(bytes) + c.Latency)
}

// DenseTime charges a dense GEMM of m×k by k×n.
func (c *CostModel) DenseTime(m, k, n int) Seconds {
	return Seconds(2 * float64(m) * float64(k) * float64(n) / c.DenseFLOPS)
}

// SpMMTime charges a sparse aggregation with nnz edges over dim features.
func (c *CostModel) SpMMTime(nnz, dim int) Seconds {
	return Seconds(2 * float64(nnz) * float64(dim) / c.SparseFLOPS)
}

// ElementwiseTime charges an activation/norm/elementwise pass.
func (c *CostModel) ElementwiseTime(elems int) Seconds {
	return Seconds(float64(elems) / c.DenseFLOPS * 16) // ~16 flop-equivalents/elem
}

// QuantTime charges quantizing or de-quantizing elems values.
func (c *CostModel) QuantTime(elems int) Seconds {
	return Seconds(float64(elems) / c.QuantRate)
}

// Clock is one device's simulated timeline with a per-category breakdown.
type Clock struct {
	now       Seconds
	breakdown map[Category]Seconds
}

// Category labels where simulated time went (Fig. 10's breakdown).
type Category int

const (
	Comm Category = iota
	Comp
	Quant
	Idle // barrier wait
	Assign
	// Overlap is bookkeeping-only: seconds during which compute and a
	// collective ran concurrently. It never advances the clock — those
	// seconds already elapsed under Comp (split-phase start/wait, where the
	// hidden wire time goes uncharged) or under Comm (the closed-form
	// schedules of core's stage, where the hidden compute goes uncharged) —
	// and is excluded from wall-clock totals; it exists so breakdowns show
	// how much a schedule managed to hide.
	Overlap
)

func (c Category) String() string {
	switch c {
	case Comm:
		return "comm"
	case Comp:
		return "comp"
	case Quant:
		return "quant"
	case Idle:
		return "idle"
	case Assign:
		return "assign"
	case Overlap:
		return "overlap"
	}
	return fmt.Sprintf("Category(%d)", int(c))
}

// NewClock returns a clock at t=0.
func NewClock() *Clock {
	return &Clock{breakdown: make(map[Category]Seconds)}
}

// Now returns the current simulated time.
func (c *Clock) Now() Seconds { return c.now }

// Advance adds dt under the given category.
func (c *Clock) Advance(cat Category, dt Seconds) {
	if dt < 0 {
		panic("timing: negative advance")
	}
	c.now += dt
	c.breakdown[cat] += dt
}

// AdvanceTo moves the clock forward to t (if t is later), charging the gap
// to cat (typically Idle for barrier waits).
func (c *Clock) AdvanceTo(cat Category, t Seconds) {
	if t > c.now {
		c.Advance(cat, t-c.now)
	}
}

// AddOverlap records dt seconds during which compute and a collective ran
// concurrently. Unlike Advance it never moves the clock: the seconds
// already elapsed, charged once — to Comp when FinishDeferred hides wire
// time behind compute, to Comm when a closed-form schedule hides compute
// behind wire time — so this only annotates the breakdown. Non-positive dt
// is a no-op.
func (c *Clock) AddOverlap(dt Seconds) {
	if dt > 0 {
		c.breakdown[Overlap] += dt
	}
}

// FinishDeferred charges the completion of a split-phase collective whose
// Start was issued at time start, whose payload alignment point (the
// blocking path's barrier/post rendezvous) is align, and whose wire time
// is wire. It is the single charging rule every backend's Wait must call,
// so clocks stay bit-identical across transports:
//
//   - If the device arrives at Wait no later than align, it executes
//     exactly the blocking sequence — idle to align, then charge the wire
//     time — so Start immediately followed by Wait is bitwise identical
//     to the blocking collective. Any compute done since Start shortened
//     the idle wait and is recorded as Overlap.
//   - If it arrives after the collective completed (align+wire), the
//     whole window was hidden: nothing is charged, Overlap records the
//     hidden span.
//   - In between, the remaining tail of the wire time is charged to Comm
//     and the part that ran concurrently with compute becomes Overlap.
//
// Invariant: ΔComm + ΔIdle + ΔOverlap = (align + wire) − start (clamped
// at zero), i.e. the full latency of the collective is always accounted,
// split between paid and hidden time.
func FinishDeferred(c *Clock, start, align, wire Seconds) {
	now := c.Now()
	if now <= align {
		hid := now - start
		c.AdvanceTo(Idle, align)
		c.Advance(Comm, wire)
		c.AddOverlap(hid)
		return
	}
	ready := align + wire
	if now >= ready {
		c.AddOverlap(ready - start)
		return
	}
	c.AddOverlap(now - start)
	c.Advance(Comm, ready-now)
}

// Breakdown returns a copy of the per-category totals.
func (c *Clock) Breakdown() map[Category]Seconds {
	out := make(map[Category]Seconds, len(c.breakdown))
	for k, v := range c.breakdown {
		out[k] = v
	}
	return out
}

// Spent returns the total under cat.
func (c *Clock) Spent(cat Category) Seconds { return c.breakdown[cat] }

// MaxSeconds returns the max of a slice of clocks' Now (epoch time is the
// slowest device in synchronous training).
func MaxSeconds(clocks []*Clock) Seconds {
	var mx Seconds
	for _, c := range clocks {
		if c.Now() > mx {
			mx = c.Now()
		}
	}
	return mx
}

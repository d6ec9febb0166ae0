package core

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/tensor"
	"repro/internal/timing"
)

// gnnLayer is one GNN layer on one device. GCN computes
// σ(LN(Â·X_full·W + b)); GraphSAGE computes σ(LN([X_self ‖ mean(X_nbr)]·W
// + b)). The last layer skips norm/activation/dropout and emits logits.
//
// A layer runs over an explicit list of its device's local rows, in
// ascending order: a hidden layer over all of them, since the next layer
// reads every one, and the last layer over the rows its reader reads — the
// loss's in a training pass, all of them in evaluation. The simulated clock
// charges every row all the same (inventory), as the paper's dense autograd
// computes them.
type gnnLayer struct {
	idx   int
	last  bool
	kind  ModelKind
	inDim int

	lin  *nn.Linear
	ln   *nn.LayerNorm
	relu *nn.ReLU
	drop *nn.Dropout

	// every lists all local rows. rows is the list of the latest forward,
	// which its backward reads.
	every, rows []int32

	// steady-state scratch (shapes are fixed per device), each holding
	// every local row and used over the leading len(rows): the aggregation
	// output, GraphSAGE's [self ‖ agg] block and the backward input-gradient
	// block. All are fully (over)written on every use — SpMM overwrites,
	// the concatenation copies, SpMMT zero-fills.
	agg, cat *tensor.Matrix
	dxFull   *tensor.Matrix
}

func newGNNLayer(kind ModelKind, idx int, inDim, outDim int, last bool, dropout float32, rng *tensor.RNG) *gnnLayer {
	linIn := inDim
	if kind == GraphSAGE {
		linIn = 2 * inDim
	}
	l := &gnnLayer{
		idx: idx, last: last, kind: kind, inDim: inDim,
		lin: nn.NewLinear(layerName(idx), linIn, outDim, rng),
	}
	if !last {
		l.ln = nn.NewLayerNorm(layerName(idx), outDim)
		l.relu = &nn.ReLU{}
		l.drop = &nn.Dropout{P: dropout}
	}
	return l
}

func layerName(idx int) string {
	return fmt.Sprintf("layer%d", idx)
}

func (l *gnnLayer) params() []*nn.Param {
	ps := l.lin.Params()
	if l.ln != nil {
		ps = append(ps, l.ln.Params()...)
	}
	return ps
}

// forward consumes xFull ((numLocal+numHalo)×inDim with halo rows already
// filled) and returns the layer output over every local row.
func (l *gnnLayer) forward(lg *partition.LocalGraph, xFull *tensor.Matrix, rng *tensor.RNG, train bool) *tensor.Matrix {
	return l.forwardRows(lg, xFull, l.every, rng, train)
}

// forwardRows is forward over rows, ascending local rows: row k of the
// output is local row rows[k]'s. Only the last layer is given fewer than
// every row.
func (l *gnnLayer) forwardRows(lg *partition.LocalGraph, xFull *tensor.Matrix, rows []int32, rng *tensor.RNG, train bool) *tensor.Matrix {
	if l.agg == nil {
		l.agg = tensor.New(lg.NumLocal, l.inDim)
	}
	agg := leading(l.agg, len(rows))
	lg.Adj.SpMMRows(agg, xFull, rows)
	return l.dense(xFull, rows, agg, rng, train)
}

// dense is the layer after its aggregation over rows: the Linear over agg
// (GCN) or over [self ‖ agg] (GraphSAGE; self is row rows[k] of x, the
// layer input, beside row k of agg), then norm, activation and dropout. It
// reads x and agg and writes neither, so they may be shared.
func (l *gnnLayer) dense(x *tensor.Matrix, rows []int32, agg *tensor.Matrix, rng *tensor.RNG, train bool) *tensor.Matrix {
	l.rows = rows
	linIn := agg
	if l.kind == GraphSAGE {
		if l.cat == nil {
			l.cat = tensor.New(len(l.every), 2*l.inDim)
		}
		linIn = leading(l.cat, len(rows))
		for k, r := range rows {
			c := linIn.Row(k)
			copy(c[:l.inDim], x.Row(int(r)))
			copy(c[l.inDim:], agg.Row(k))
		}
	}
	z := l.lin.Forward(linIn)
	if l.last {
		return z
	}
	h := l.ln.Forward(z)
	h = l.relu.Forward(h)
	return l.drop.Forward(h, rng, train)
}

// leading returns a view of m's first rows rows.
func leading(m *tensor.Matrix, rows int) *tensor.Matrix {
	return &tensor.Matrix{Rows: rows, Cols: m.Cols, Data: m.Data[:rows*m.Cols]}
}

// backward consumes the gradient of this layer's output over the rows of
// its latest forward and returns the gradient w.r.t. xFull (halo rows
// included; they are the "embedding gradients"/errors to ship back to their
// owners). Nothing reads layer 0's, so neither half of it is computed there
// — not the dense dz·Wᵀ, not the transposed aggregation — and nil is
// returned; weight gradients are always accumulated.
//
// On the last layer a training pass's rows are the loss's, whose gradient
// is +0 on every other row. Each row left out would only add ±0 terms to
// sums that start at +0, so are never −0 and do not change, and the other
// terms keep their order: dW, db and the returned gradient are the bits of
// the pass over every row. The one exception is a non-finite activation
// in a row the loss does not read: over every row its 0·Inf or 0·NaN term
// makes dW NaN, here it is never multiplied.
func (l *gnnLayer) backward(lg *partition.LocalGraph, dout *tensor.Matrix) *tensor.Matrix {
	dz := dout
	if !l.last {
		dz = l.drop.Backward(dz)
		dz = l.relu.Backward(dz)
		dz = l.ln.Backward(dz)
	}
	if l.idx == 0 {
		l.lin.BackwardParams(dz)
		return nil
	}
	dLinIn := l.lin.Backward(dz)
	if l.dxFull == nil {
		l.dxFull = tensor.New(lg.NumLocal+lg.NumHalo, l.inDim)
	}
	dxFull := l.dxFull
	if l.kind == GraphSAGE {
		dSelf, dAgg := dLinIn.SplitCols(l.inDim)
		lg.Adj.SpMMTRows(dxFull, dAgg, l.rows)
		for k, r := range l.rows {
			tensor.Axpy(dxFull.Row(int(r)), dSelf.Row(k), 1) // 1·v is v, so this is row += src
		}
	} else {
		lg.Adj.SpMMTRows(dxFull, dLinIn, l.rows)
	}
	return dxFull
}

// work is one kernel of a layer's stage as the clock charges it: a product
// or aggregation by the name and shape tensor.KernelHook reports, or an
// elementwise proxy. runs is false for work charged but never run.
type work struct {
	name   string
	kernel string
	shape  [3]int
	runs   bool
}

// time is w's simulated cost: the clock's only compute charge.
func (w work) time(model *timing.CostModel) timing.Seconds {
	switch w.kernel {
	case "SpMM", "SpMMT":
		return model.SpMMTime(w.shape[0], w.shape[1])
	case "elementwise":
		return model.ElementwiseTime(w.shape[0])
	}
	return model.DenseTime(w.shape[0], w.shape[1], w.shape[2])
}

// inventory lists, in the order their charges add up, the kernels of one
// direction of l over rows local rows holding nnz edges. One proxy, of 3
// passes forward and 4 backward, stands for norm, ReLU and dropout.
func (l *gnnLayer) inventory(dir direction, rows, nnz int) []work {
	in, linIn, out, input := l.inDim, l.lin.W.Value.Rows, l.lin.W.Value.Cols, l.idx > 0
	ws := []work{
		{"aggregate", "SpMM", [3]int{nnz, in}, true},
		{"linear", "MatMul", [3]int{rows, linIn, out}, true},
		{"norm+relu+dropout", "elementwise", [3]int{3 * rows * out}, true},
	}
	if dir == backward {
		ws = []work{
			{"linear.dW", "TMatMul", [3]int{linIn, rows, out}, true},
			{"linear.dX", "MatMulT", [3]int{rows, out, linIn}, input},
			{"aggregate.T", "SpMMT", [3]int{nnz, in}, input},
			{"dropout+relu+norm.T", "elementwise", [3]int{4 * rows * out}, true},
		}
	}
	if l.last {
		return ws[:len(ws)-1]
	}
	return ws
}

// computeLayerCosts returns the simulated compute cost of one layer on one
// device, per direction, split into the central and marginal shares used by
// AdaQP's overlap schedule: the sum of the layer's inventory over each
// class's rows and edges. Central rows touch only local columns, so their
// computation can proceed while halo messages are in flight (§2.2).
func computeLayerCosts(lg *partition.LocalGraph, l *gnnLayer, model *timing.CostModel) [2]StageCosts {
	nnzMarginal := 0
	for _, i := range lg.MarginalRows {
		nnzMarginal += lg.Adj.Degree(int(i))
	}
	charge := func(dir direction, rows, nnz int) (t timing.Seconds) {
		for _, w := range l.inventory(dir, rows, nnz) {
			t += w.time(model)
		}
		return t
	}
	var costs [2]StageCosts
	for _, dir := range directions {
		c := charge(dir, len(lg.CentralRows), lg.Adj.NumEdges()-nnzMarginal)
		m := charge(dir, len(lg.MarginalRows), nnzMarginal)
		costs[dir] = StageCosts{Total: c + m, Central: c, Marginal: m}
	}
	return costs
}

// deviceModel is the full L-layer model replica on one device. All devices
// construct it from the same seed, so initial weights are identical
// replicas, as in data-parallel training.
type deviceModel struct {
	layers []*gnnLayer
	costs  [][2]StageCosts  // per layer, per direction
	ps     []*nn.Param      // cached params() result (the set is static)
	grads  []*tensor.Matrix // cached gradients() result
}

func newDeviceModel(cfg *Config, lg *partition.LocalGraph, inDim, numClasses int, model *timing.CostModel) *deviceModel {
	rng := tensor.NewRNG(cfg.Seed) // identical on every device
	dm := &deviceModel{}
	every := make([]int32, lg.NumLocal)
	for i := range every {
		every[i] = int32(i)
	}
	dims := append(messageDims(cfg, inDim), numClasses)
	for i := 0; i < cfg.Layers; i++ {
		last := i == cfg.Layers-1
		l := newGNNLayer(cfg.Model, i, dims[i], dims[i+1], last, cfg.Dropout, rng)
		l.every = every
		dm.layers = append(dm.layers, l)
		dm.costs = append(dm.costs, computeLayerCosts(lg, l, model))
	}
	return dm
}

func (dm *deviceModel) params() []*nn.Param {
	if dm.ps == nil {
		for _, l := range dm.layers {
			dm.ps = append(dm.ps, l.params()...)
		}
	}
	return dm.ps
}

// gradients returns the parameters' gradient matrices: the operand of the
// per-epoch all-reduce.
func (dm *deviceModel) gradients() []*tensor.Matrix {
	if dm.grads == nil {
		for _, p := range dm.params() {
			dm.grads = append(dm.grads, p.Grad)
		}
	}
	return dm.grads
}

func (dm *deviceModel) zeroGrads() {
	for _, p := range dm.params() {
		p.ZeroGrad()
	}
}

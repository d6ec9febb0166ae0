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
type gnnLayer struct {
	idx   int
	last  bool
	kind  ModelKind
	inDim int
	out   int

	lin  *nn.Linear
	ln   *nn.LayerNorm
	relu *nn.ReLU
	drop *nn.Dropout

	// saved activations for backward
	aggIn *tensor.Matrix // GCN: Â·X_full; SAGE: concat — the Linear input

	// steady-state scratch (shapes are fixed per device): the aggregation
	// output and the backward input-gradient block. Both are fully
	// (over)written on every use — SpMM overwrites, SpMMT zero-fills.
	agg    *tensor.Matrix
	dxFull *tensor.Matrix
}

func newGNNLayer(kind ModelKind, idx int, inDim, outDim int, last bool, dropout float32, rng *tensor.RNG) *gnnLayer {
	linIn := inDim
	if kind == GraphSAGE {
		linIn = 2 * inDim
	}
	l := &gnnLayer{
		idx: idx, last: last, kind: kind, inDim: inDim, out: outDim,
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
// filled) and returns the layer output over local rows.
func (l *gnnLayer) forward(lg *partition.LocalGraph, xFull *tensor.Matrix, rng *tensor.RNG, train bool) *tensor.Matrix {
	if l.agg == nil {
		l.agg = tensor.New(lg.NumLocal, l.inDim)
	}
	agg := l.agg
	lg.Adj.SpMM(agg, xFull)
	var linIn *tensor.Matrix
	if l.kind == GraphSAGE {
		self := xFull.RowSlice(0, lg.NumLocal)
		linIn = tensor.ConcatCols(self, agg)
	} else {
		linIn = agg
	}
	l.aggIn = linIn
	z := l.lin.Forward(linIn)
	if l.last {
		return z
	}
	h := l.ln.Forward(z)
	h = l.relu.Forward(h)
	return l.drop.Forward(h, rng, train)
}

// backward consumes the gradient of this layer's output over local rows and
// returns the gradient w.r.t. xFull (halo rows included; they are the
// "embedding gradients"/errors to ship back to their owners). When
// needInput is false (layer 0) nothing reads that gradient, so neither half
// of it is computed — not the dense dz·Wᵀ, not the transposed aggregation —
// and nil is returned; weight gradients are always accumulated.
func (l *gnnLayer) backward(lg *partition.LocalGraph, dout *tensor.Matrix, needInput bool) *tensor.Matrix {
	dz := dout
	if !l.last {
		dz = l.drop.Backward(dz)
		dz = l.relu.Backward(dz)
		dz = l.ln.Backward(dz)
	}
	if !needInput {
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
		lg.Adj.SpMMT(dxFull, dAgg)
		for i := 0; i < lg.NumLocal; i++ {
			row := dxFull.Row(i)
			src := dSelf.Row(i)
			for j, v := range src {
				row[j] += v
			}
		}
	} else {
		lg.Adj.SpMMT(dxFull, dLinIn)
	}
	return dxFull
}

// computeLayerCosts returns the simulated compute cost of one layer on one
// device, per direction, split into the central and marginal shares used by
// AdaQP's overlap schedule. The split is computed from per-row work: a row's
// aggregation cost is proportional to its edge count and its dense cost to
// the layer dims; central rows touch only local columns, so their
// computation can proceed while halo messages are in flight (§2.2).
func computeLayerCosts(lg *partition.LocalGraph, l *gnnLayer, model *timing.CostModel) [2]StageCosts {
	nnzCentral, nnzMarginal := 0, 0
	for i := 0; i < lg.NumLocal; i++ {
		d := lg.Adj.Degree(i)
		if lg.Marginal[i] {
			nnzMarginal += d
		} else {
			nnzCentral += d
		}
	}
	nC, nM := len(lg.CentralRows), len(lg.MarginalRows)
	linIn := l.inDim
	if l.kind == GraphSAGE {
		linIn = 2 * l.inDim
	}
	rowFwd := func(nnz, rows int) timing.Seconds {
		t := model.SpMMTime(nnz, l.inDim)
		t += model.DenseTime(rows, linIn, l.out)
		if !l.last {
			t += model.ElementwiseTime(3 * rows * l.out)
		}
		return t
	}
	// Backward: two GEMMs (dW and d-input), the transposed aggregation,
	// and the activation/norm backward elementwise work.
	rowBwd := func(nnz, rows int) timing.Seconds {
		t := model.DenseTime(linIn, rows, l.out) // dW = Xᵀ·dZ
		t += model.DenseTime(rows, l.out, linIn) // dX = dZ·Wᵀ
		t += model.SpMMTime(nnz, l.inDim)
		if !l.last {
			t += model.ElementwiseTime(4 * rows * l.out)
		}
		return t
	}
	split := func(central, marginal timing.Seconds) StageCosts {
		return StageCosts{Total: central + marginal, Central: central, Marginal: marginal}
	}
	return [2]StageCosts{
		forward:  split(rowFwd(nnzCentral, nC), rowFwd(nnzMarginal, nM)),
		backward: split(rowBwd(nnzCentral, nC), rowBwd(nnzMarginal, nM)),
	}
}

// deviceModel is the full L-layer model replica on one device. All devices
// construct it from the same seed, so initial weights are identical
// replicas, as in data-parallel training.
type deviceModel struct {
	kind   ModelKind
	layers []*gnnLayer
	costs  [][2]StageCosts  // per layer, per direction
	ps     []*nn.Param      // cached params() result (the set is static)
	grads  []*tensor.Matrix // cached gradients() result
}

func newDeviceModel(cfg *Config, lg *partition.LocalGraph, inDim, numClasses int, model *timing.CostModel) *deviceModel {
	rng := tensor.NewRNG(cfg.Seed) // identical on every device
	dm := &deviceModel{kind: cfg.Model}
	dims := make([]int, cfg.Layers+1)
	dims[0] = inDim
	for i := 1; i < cfg.Layers; i++ {
		dims[i] = cfg.Hidden
	}
	dims[cfg.Layers] = numClasses
	for i := 0; i < cfg.Layers; i++ {
		last := i == cfg.Layers-1
		l := newGNNLayer(cfg.Model, i, dims[i], dims[i+1], last, cfg.Dropout, rng)
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

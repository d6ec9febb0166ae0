package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/synthetic"
	"repro/internal/tensor"
	"repro/internal/timing"
)

// TestOutputLayerMatchesFullRows holds the last layer's training pass over
// the loss's rows to the same pass over every local row, built here from the
// full-row kernels — SpMM, MatMul and the bias, the loss under the training
// mask, TMatMulInto, MatMulTInto and SpMMT — as bits: the loss, the loss
// rows' logits, dW, db and the whole input gradient. It covers GCN and
// GraphSAGE (whose self term adds to the gradient's local rows),
// single-label softmax and multi-label BCE, products-sim's shapes past the
// kernels' goroutine gates, and a device whose shard holds no training row.
func TestOutputLayerMatchesFullRows(t *testing.T) {
	cases := []struct {
		dataset string
		scale   synthetic.Scale
		parts   int
	}{{"tiny", 1, 3}, {"tiny-multi", 1, 3}, {"products-sim", 0.1, 2}}
	for _, c := range cases {
		ds := synthetic.MustLoad(c.dataset, c.scale)
		denom, posWeight := lossWeights(ds)
		for _, kind := range []ModelKind{GCN, GraphSAGE} {
			dep := Deploy(ds, c.parts, kind, partition.LDG)
			for rank, lg := range dep.Locals {
				ld := shardData(ds, lg)
				if rank == 1 { // a device without a training row
					clear(ld.train)
					ld.gatherLoss()
				}
				name := fmt.Sprintf("%s/%v/device %d (%d of %d rows in the loss)", c.dataset, kind, rank, len(ld.lossRows), lg.NumLocal)
				checkOutputLayer(t, name, ds, lg, ld, kind, denom, posWeight)
			}
		}
	}
}

func checkOutputLayer(t *testing.T, name string, ds *synthetic.Dataset, lg *partition.LocalGraph, ld *localData, kind ModelKind, denom, posWeight float64) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Model, cfg.Layers, cfg.Hidden = kind, 2, 24
	dm := newDeviceModel(&cfg, lg, ds.Features.Cols, ds.NumClasses, timing.Default())
	l := dm.layers[1]
	rng := tensor.NewRNG(11)
	xFull := tensor.New(lg.NumLocal+lg.NumHalo, l.inDim)
	xFull.FillUniform(rng, -1, 1)
	for i, v := range xFull.Data { // ReLU-sparse, as a hidden layer's output is
		if v < -0.25 {
			xFull.Data[i] = 0
		}
	}
	loss := func(logits *tensor.Matrix, labels []int, y *tensor.Matrix, mask []bool) (float64, *tensor.Matrix) {
		if ds.Task == synthetic.SingleLabel {
			return nn.SoftmaxCrossEntropyScaled(logits, labels, mask, denom)
		}
		return nn.SigmoidBCEWeighted(logits, y, mask, denom, posWeight)
	}

	// The layer, over the loss's rows.
	dm.zeroGrads()
	logits := l.forwardRows(lg, xFull, ld.lossRows, rng, true)
	gotLoss, dlogits := loss(logits, ld.lossLabels, ld.lossY, ld.lossMask)
	gotDX := l.backward(lg, dlogits)

	// The reference, over every local row.
	W, b := l.lin.W.Value, l.lin.B.Value.Row(0)
	agg := tensor.New(lg.NumLocal, l.inDim)
	lg.Adj.SpMM(agg, xFull)
	linIn := agg
	if kind == GraphSAGE {
		self := tensor.FromSlice(lg.NumLocal, l.inDim, xFull.Data[:lg.NumLocal*l.inDim])
		linIn = tensor.ConcatCols(self, agg)
	}
	z := tensor.MatMul(linIn, W)
	for i := 0; i < z.Rows; i++ {
		tensor.Axpy(z.Row(i), b, 1)
	}
	wantLoss, dz := loss(z, ld.labels, ld.y, ld.train)
	dW := tensor.New(W.Rows, W.Cols)
	tensor.TMatMulInto(dW, linIn, dz)
	db := make([]float32, len(b))
	for i := 0; i < dz.Rows; i++ {
		tensor.Axpy(db, dz.Row(i), 1)
	}
	dLinIn := tensor.New(lg.NumLocal, W.Rows)
	tensor.MatMulTInto(dLinIn, dz, W)
	dxFull := tensor.New(lg.NumLocal+lg.NumHalo, l.inDim)
	if kind == GraphSAGE {
		dSelf, dAgg := dLinIn.SplitCols(l.inDim)
		lg.Adj.SpMMT(dxFull, dAgg)
		for i := 0; i < lg.NumLocal; i++ {
			tensor.Axpy(dxFull.Row(i), dSelf.Row(i), 1)
		}
	} else {
		lg.Adj.SpMMT(dxFull, dLinIn)
	}

	if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
		t.Errorf("%s: loss %v, over every row %v", name, gotLoss, wantLoss)
	}
	if logits.Rows != len(ld.lossRows) {
		t.Fatalf("%s: %d rows of logits, want the loss's %d", name, logits.Rows, len(ld.lossRows))
	}
	for k, r := range ld.lossRows {
		if i := firstDiffBits(logits.Row(k), z.Row(int(r))); i >= 0 {
			t.Errorf("%s: logits of row %d column %d = %v, over every row %v", name, r, i, logits.Row(k)[i], z.Row(int(r))[i])
		}
	}
	for _, m := range []struct {
		what      string
		got, want []float32
	}{
		{"dW", l.lin.W.Grad.Data, dW.Data},
		{"db", l.lin.B.Grad.Data, db},
		{"input gradient", gotDX.Data, dxFull.Data},
	} {
		if len(m.got) != len(m.want) {
			t.Fatalf("%s: %d elements of %s, want %d", name, len(m.got), m.what, len(m.want))
		}
		if i := firstDiffBits(m.got, m.want); i >= 0 {
			t.Errorf("%s: %s element %d = %v, over every row %v", name, m.what, i, m.got[i], m.want[i])
		}
	}
}

// firstDiffBits returns the first index where got and want, of one length,
// differ as float32 bits, or -1.
func firstDiffBits(got, want []float32) int {
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return i
		}
	}
	return -1
}

// BenchmarkOutputLayer times one training forward and backward of the last
// layer, loss included, at paper-products' per-device shape (products-sim
// at 0.5 on 4 LDG parts, device 0: about 2,000 local rows, 8 % of them
// training rows, hidden 64 → 47 classes). loss-rows is the training pass;
// every-row runs the same path over all local rows under the training
// mask, the work a full-row pass does.
func BenchmarkOutputLayer(b *testing.B) {
	ds := synthetic.MustLoad("products-sim", 0.5)
	lg := Deploy(ds, 4, GCN, partition.LDG).Locals[0]
	ld := shardData(ds, lg)
	denom, _ := lossWeights(ds)
	cfg := DefaultConfig()
	cfg.Hidden = 64
	dm := newDeviceModel(&cfg, lg, ds.Features.Cols, ds.NumClasses, timing.Default())
	l := dm.layers[len(dm.layers)-1]
	rng := tensor.NewRNG(5)
	xFull := tensor.New(lg.NumLocal+lg.NumHalo, l.inDim)
	xFull.FillUniform(rng, -1, 1)
	for i, v := range xFull.Data {
		if v < -0.25 {
			xFull.Data[i] = 0
		}
	}
	for _, c := range []struct {
		name   string
		rows   []int32
		labels []int
		mask   []bool
	}{
		{"loss-rows", ld.lossRows, ld.lossLabels, ld.lossMask},
		{"every-row", l.every, ld.labels, ld.train},
	} {
		b.Run(c.name, func(b *testing.B) {
			for b.Loop() {
				dm.zeroGrads()
				logits := l.forwardRows(lg, xFull, c.rows, rng, true)
				_, dlogits := nn.SoftmaxCrossEntropyScaled(logits, c.labels, c.mask, denom)
				l.backward(lg, dlogits)
			}
			b.ReportMetric(float64(len(c.rows)), "rows")
		})
	}
}

package core

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"repro/internal/partition"
	"repro/internal/synthetic"
	"repro/internal/tensor"
	"repro/internal/timing"
)

// closedFormCosts is computeLayerCosts as a hand-kept formula, before it
// became a fold over the layer's inventory: the reference the fold is held
// to.
func closedFormCosts(lg *partition.LocalGraph, l *gnnLayer, model *timing.CostModel) [2]StageCosts {
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
	linIn, out := l.inDim, l.lin.W.Value.Cols
	if l.kind == GraphSAGE {
		linIn = 2 * l.inDim
	}
	rowFwd := func(nnz, rows int) timing.Seconds {
		t := model.SpMMTime(nnz, l.inDim)
		t += model.DenseTime(rows, linIn, out)
		if !l.last {
			t += model.ElementwiseTime(3 * rows * out)
		}
		return t
	}
	rowBwd := func(nnz, rows int) timing.Seconds {
		t := model.DenseTime(linIn, rows, out) // dW = Xᵀ·dZ
		t += model.DenseTime(rows, out, linIn) // dX = dZ·Wᵀ
		t += model.SpMMTime(nnz, l.inDim)
		if !l.last {
			t += model.ElementwiseTime(4 * rows * out)
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

// TestLayerCostsFoldMatchesClosedForm holds the clock's per-layer charge, a
// fold over each layer's inventory, to the closed form it replaced, as
// float64 bits, for every layer, direction and central/marginal/total
// share. Layers 1 makes layer 0 the last layer.
func TestLayerCostsFoldMatchesClosedForm(t *testing.T) {
	model := timing.Default()
	bits := func(c StageCosts) [3]uint64 {
		return [3]uint64{math.Float64bits(float64(c.Total)), math.Float64bits(float64(c.Central)), math.Float64bits(float64(c.Marginal))}
	}
	for _, name := range []string{"tiny", "tiny-multi"} {
		ds := synthetic.MustLoad(name, 1)
		for _, kind := range []ModelKind{GCN, GraphSAGE} {
			for _, parts := range []int{1, 3} {
				for _, layers := range []int{1, 3} {
					cfg := tinyConfig(CodecFP32)
					cfg.Model, cfg.Layers = kind, layers
					for _, lg := range Deploy(ds, parts, kind, partition.LDG).Locals {
						dm := newDeviceModel(&cfg, lg, ds.Features.Cols, ds.NumClasses, model)
						for i, l := range dm.layers {
							want := closedFormCosts(lg, l, model)
							for _, dir := range directions {
								if bits(dm.costs[i][dir]) != bits(want[dir]) {
									t.Errorf("%s %v parts %d layers %d: layer %d %v costs %+v, closed form %+v",
										name, kind, parts, layers, i, dir, dm.costs[i][dir], want[dir])
								}
							}
						}
					}
				}
			}
		}
	}
}

// kernelCall is one product or aggregation as tensor.KernelHook reports it.
type kernelCall struct {
	kernel string
	shape  [3]int
}

// TestLayerInventoryCensus holds each layer's inventory to what runs. It
// counts every product and aggregation of a training run through
// tensor.KernelHook, by kind and shape, and wants exactly: every epoch, the
// inventory's running entries over all local rows (central and marginal
// summed) for the hidden layers, and over the loss's rows and their edges
// for the last layer; the final evaluation's forward over all local rows,
// whose layer 0 has no aggregation; and, once per device, the Deployment's
// static layer-0 aggregate. Layer 0's input gradient — dz·Wᵀ and the
// transposed aggregation, charged but skipped — must not appear. The clock
// charges the last layer's training work over all local rows, as the
// paper's dense autograd runs it (TestLayerCostsFoldMatchesClosedForm); the
// host computes only the rows the loss reads.
func TestLayerInventoryCensus(t *testing.T) {
	ds := synthetic.MustLoad("tiny", 1)
	for _, kind := range []ModelKind{GCN, GraphSAGE} {
		for _, layers := range []int{1, 3} {
			for _, parts := range []int{1, 3} {
				cfg := tinyConfig(CodecFP32)
				cfg.Model, cfg.Layers, cfg.Epochs, cfg.EvalEvery = kind, layers, 3, 0
				cfg.Hidden = 24 // unlike tiny's 32 features: shapes tell layer 0 from layer 1
				dep := Deploy(ds, parts, kind, partition.LDG)

				want, names := map[kernelCall]int{}, map[kernelCall][]string{}
				declare := func(l int, ws []work, n int, pass string) {
					for _, w := range ws {
						if !w.runs || w.kernel == "elementwise" {
							continue
						}
						c := kernelCall{w.kernel, w.shape}
						want[c] += n
						names[c] = append(names[c], fmt.Sprintf("%s layer %d %s", pass, l, w.name))
					}
				}
				for _, lg := range dep.Locals {
					dm := newDeviceModel(&cfg, lg, ds.Features.Cols, ds.NumClasses, timing.Default())
					rows, nnz := len(lg.CentralRows)+len(lg.MarginalRows), lg.Adj.NumEdges()
					lossRows := shardData(ds, lg).lossRows
					lossNNZ := 0
					for _, r := range lossRows {
						lossNNZ += lg.Adj.Degree(int(r))
					}
					for _, l := range dm.layers {
						trainRows, trainNNZ := rows, nnz
						if l.last {
							trainRows, trainNNZ = len(lossRows), lossNNZ
						}
						declare(l.idx, l.inventory(forward, trainRows, trainNNZ), cfg.Epochs, "train")
						declare(l.idx, l.inventory(backward, trainRows, trainNNZ), cfg.Epochs, "train")
						eval := l.inventory(forward, rows, nnz)
						if l.idx == 0 { // evaluation reads the static aggregate instead
							if eval[0].name != "aggregate" {
								t.Fatalf("layer 0's forward inventory does not start with its aggregation: %+v", eval)
							}
							eval = eval[1:]
						}
						declare(l.idx, eval, 1, "eval")
					}
					static := []work{{"static aggregate", "SpMM", [3]int{nnz, ds.Features.Cols}, true}}
					declare(0, static, 1, "deploy")
				}

				var mu sync.Mutex
				got := map[kernelCall]int{}
				tensor.KernelHook = func(k string, shape [3]int) {
					if k == "MinMax" { // TestRangeScanCensus counts those
						return
					}
					mu.Lock()
					got[kernelCall{k, shape}]++
					mu.Unlock()
				}
				_, err := TrainDeployed(dep, cfg, nil)
				tensor.KernelHook = nil
				if err != nil {
					t.Fatal(err)
				}

				var diffs []string
				for c := range got {
					if _, ok := want[c]; !ok {
						diffs = append(diffs, fmt.Sprintf("%s %v: %d calls, none declared", c.kernel, c.shape, got[c]))
					}
				}
				for c, n := range want {
					if got[c] != n {
						diffs = append(diffs, fmt.Sprintf("%s %v: %d calls, want %d (%v)", c.kernel, c.shape, got[c], n, names[c]))
					}
				}
				sort.Strings(diffs)
				for _, d := range diffs {
					t.Errorf("%v layers %d parts %d: %s", kind, layers, parts, d)
				}
			}
		}
	}
}

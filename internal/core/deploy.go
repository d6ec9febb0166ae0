package core

import (
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/synthetic"
	"repro/internal/tensor"
)

// Deployment is a dataset partitioned and wired for distributed training.
type Deployment struct {
	Dataset    *synthetic.Dataset
	Model      ModelKind
	Graph      *graph.CSR // model-prepared global graph (self-loops for GCN)
	Assignment *partition.Assignment
	Locals     []*partition.LocalGraph
	Stats      partition.Stats
}

// Deploy prepares the global graph for the model kind (GCN: self-loops +
// symmetric normalization; GraphSAGE: mean normalization), partitions it
// and builds the per-device local graphs with wire index sets.
func Deploy(ds *synthetic.Dataset, parts int, model ModelKind, strategy partition.Strategy) *Deployment {
	g := ds.Graph
	var norm graph.Norm
	if model == GCN {
		g = g.WithSelfLoops()
		norm = graph.NormSym
	} else {
		norm = graph.NormMean
	}
	a := partition.Partition(g, parts, strategy)
	lgs := partition.Build(g, a, norm)
	partition.WireSendSets(lgs)
	return &Deployment{
		Dataset:    ds,
		Model:      model,
		Graph:      g,
		Assignment: a,
		Locals:     lgs,
		Stats:      partition.ComputeStats(g, a, lgs),
	}
}

// localData is the per-device shard of features, labels and masks.
type localData struct {
	x          *tensor.Matrix
	labels     []int          // single-label
	y          *tensor.Matrix // multi-label targets
	train, val []bool
	test       []bool
}

func shardData(ds *synthetic.Dataset, lg *partition.LocalGraph) *localData {
	idx := make([]int, len(lg.GlobalID))
	for i, g := range lg.GlobalID {
		idx[i] = int(g)
	}
	ld := &localData{
		x:     ds.Features.GatherRows(idx),
		train: make([]bool, len(idx)),
		val:   make([]bool, len(idx)),
		test:  make([]bool, len(idx)),
	}
	for i, g := range idx {
		ld.train[i] = ds.TrainMask[g]
		ld.val[i] = ds.ValMask[g]
		ld.test[i] = ds.TestMask[g]
	}
	if ds.Task == synthetic.SingleLabel {
		ld.labels = make([]int, len(idx))
		for i, g := range idx {
			ld.labels[i] = int(ds.Labels.At(g, 0))
		}
	} else {
		ld.y = ds.Labels.GatherRows(idx)
	}
	return ld
}

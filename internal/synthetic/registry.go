package synthetic

import (
	"fmt"
	"math"
	"sort"
)

// Scale multiplies the node/edge counts of every registered spec. 1.0 is
// the default laptop scale (~100× smaller than the paper's datasets).
type Scale float64

// Registered dataset specs. Shape parameters follow Table 3 of the paper:
//
//	Dataset          #Nodes     #Edges      #Feat  #Classes  Task
//	Reddit           232,965    114,615,892   602     41     single
//	Yelp             716,847      6,977,410   300    100     multi
//	ogbn-products  2,449,029     61,859,140   100     47     single
//	AmazonProducts 1,569,960    264,339,468   200    107     multi
//
// The -sim versions keep the feature dim, class count and task of the
// original and preserve the *density ordering* — Reddit by far the densest
// (avg degree ~492), AmazonProducts next (~168), ogbn-products (~25), Yelp
// (~10) — because that ordering drives the paper's
// PipeGCN-wins-on-Reddit observation. Absolute degrees are compressed
// (45/30/18/10) so that graphs scaled ~20-100× down remain sparse: keeping
// degree 492 on a few thousand nodes would make the graph near-complete
// and every neighbor remote, destroying the partition-locality structure
// METIS exploits on the real datasets. CommunityP ≈ 0.9 plants the
// locality that gives the partitioner METIS-like remote-neighbor ratios
// (Table 1 reports 31–63%).
var specs = map[string]Spec{
	"reddit-sim": {
		Name: "reddit-sim", Nodes: 8000, Edges: 180000,
		FeatureDim: 602, NumClasses: 41, Task: SingleLabel,
		CommunityP: 0.92, ClassSignal: 0.6, NeighborMix: 0.4,
		TrainFrac: 0.66, ValFrac: 0.10,
	},
	"yelp-sim": {
		Name: "yelp-sim", Nodes: 10000, Edges: 50000,
		FeatureDim: 300, NumClasses: 100, Task: MultiLabel,
		CommunityP: 0.9, ClassSignal: 0.8, NeighborMix: 0.3,
		TrainFrac: 0.75, ValFrac: 0.10,
	},
	"products-sim": {
		Name: "products-sim", Nodes: 16000, Edges: 144000,
		FeatureDim: 100, NumClasses: 47, Task: SingleLabel,
		CommunityP: 0.9, ClassSignal: 0.7, NeighborMix: 0.4,
		TrainFrac: 0.08, ValFrac: 0.02,
	},
	"amazon-sim": {
		Name: "amazon-sim", Nodes: 12000, Edges: 180000,
		FeatureDim: 200, NumClasses: 107, Task: MultiLabel,
		CommunityP: 0.9, ClassSignal: 0.8, NeighborMix: 0.3,
		TrainFrac: 0.85, ValFrac: 0.05,
	},
	// tiny is for unit tests and the quickstart example.
	"tiny": {
		Name: "tiny", Nodes: 400, Edges: 3000,
		FeatureDim: 32, NumClasses: 7, Task: SingleLabel,
		CommunityP: 0.5, ClassSignal: 1.0, NeighborMix: 0.4,
		TrainFrac: 0.6, ValFrac: 0.2,
	},
	"tiny-multi": {
		Name: "tiny-multi", Nodes: 400, Edges: 3000,
		FeatureDim: 32, NumClasses: 10, Task: MultiLabel,
		CommunityP: 0.5, ClassSignal: 1.0, NeighborMix: 0.4,
		TrainFrac: 0.6, ValFrac: 0.2,
	},
}

// Names returns the registered dataset names, sorted.
func Names() []string {
	out := make([]string, 0, len(specs))
	for k := range specs {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// LookupSpec returns the spec for name.
func LookupSpec(name string) (Spec, error) {
	s, ok := specs[name]
	if !ok {
		return Spec{}, fmt.Errorf("synthetic: unknown dataset %q (have %v)", name, Names())
	}
	return s, nil
}

// Load builds the named dataset at the given scale with a fixed per-dataset
// seed, so every experiment in the repo sees identical data. Scale 0 means
// 1; a negative or non-finite scale is an error.
func Load(name string, scale Scale) (*Dataset, error) {
	s, err := LookupSpec(name)
	if err != nil {
		return nil, err
	}
	switch {
	case scale == 0:
		scale = 1
	case !(scale > 0) || math.IsInf(float64(scale), 1):
		return nil, fmt.Errorf("synthetic: scale %v is not a positive finite number", float64(scale))
	}
	s.Nodes = int(float64(s.Nodes) * float64(scale))
	s.Edges = int(float64(s.Edges) * float64(scale))
	if s.Nodes < 2*s.NumClasses {
		s.Nodes = 2 * s.NumClasses
	}
	seed := uint64(0xADA0)
	for _, c := range name {
		seed = seed*131 + uint64(c)
	}
	return s.Build(seed), nil
}

// MustLoad is Load, panicking on error (for examples and benches).
func MustLoad(name string, scale Scale) *Dataset {
	d, err := Load(name, scale)
	if err != nil {
		panic(err)
	}
	return d
}

// Package synthetic generates the benchmark graphs used by the
// reproduction. The paper evaluates on Reddit, Yelp, ogbn-products and
// AmazonProducts, which are not redistributable here; instead we generate
// power-law graphs (R-MAT) with planted community structure whose shape
// parameters — node/edge ratio, feature dimensionality, class count,
// single- vs multi-label task — match each dataset, scaled down ~100× so
// the full experiment suite runs on a laptop.
package synthetic

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// Task distinguishes the two node-classification settings in the paper.
type Task int

const (
	// SingleLabel is softmax classification (Reddit, ogbn-products);
	// metric is accuracy.
	SingleLabel Task = iota
	// MultiLabel is per-class sigmoid classification (Yelp,
	// AmazonProducts); metric is micro-F1.
	MultiLabel
)

func (t Task) String() string {
	if t == MultiLabel {
		return "multi-label"
	}
	return "single-label"
}

// Dataset is a full-graph node classification problem.
type Dataset struct {
	Name     string
	Graph    *graph.CSR // symmetric, no self-loops
	Features *tensor.Matrix
	// Labels: single-label → one column of class ids;
	// multi-label → N×C {0,1} matrix.
	Labels     *tensor.Matrix
	NumClasses int
	Task       Task
	TrainMask  []bool
	ValMask    []bool
	TestMask   []bool
}

// NumNodes returns the node count.
func (d *Dataset) NumNodes() int { return d.Graph.N }

// MaskedCount returns how many entries of mask are set.
func MaskedCount(mask []bool) int {
	n := 0
	for _, b := range mask {
		if b {
			n++
		}
	}
	return n
}

// RMATConfig parameterizes the recursive-matrix power-law generator of
// Chakrabarti et al., plus planted community structure: a fraction of edges
// is rewired to connect nodes of the same (latent) community, which gives
// the partitioner locality to exploit — mirroring how METIS finds good cuts
// on real social/co-purchase graphs.
type RMATConfig struct {
	Nodes       int
	Edges       int     // number of undirected edges to sample
	A, B, C     float64 // R-MAT quadrant probabilities (D = 1-A-B-C)
	Communities int     // latent communities (== classes unless 0)
	CommunityP  float64 // probability an edge is intra-community
	Seed        uint64
}

// GenerateRMAT samples an undirected power-law graph.
func GenerateRMAT(cfg RMATConfig) *graph.CSR {
	if cfg.Nodes <= 1 {
		panic("synthetic: RMAT needs at least 2 nodes")
	}
	rng := tensor.NewRNG(cfg.Seed)
	// levels = ceil(log2(nodes))
	levels := 0
	for (1 << levels) < cfg.Nodes {
		levels++
	}
	comm := cfg.Communities
	if comm <= 0 {
		comm = 1
	}
	commOf := assignCommunities(cfg.Nodes, comm, rng)

	edges := make([]graph.Edge, 0, 2*cfg.Edges)
	sample := func() (int, int) {
		u, v := 0, 0
		for l := 0; l < levels; l++ {
			r := rng.Float64()
			switch {
			case r < cfg.A:
				// top-left: no bits
			case r < cfg.A+cfg.B:
				v |= 1 << l
			case r < cfg.A+cfg.B+cfg.C:
				u |= 1 << l
			default:
				u |= 1 << l
				v |= 1 << l
			}
		}
		return u % cfg.Nodes, v % cfg.Nodes
	}
	for i := 0; i < cfg.Edges; i++ {
		u, v := sample()
		if u == v {
			v = (v + 1) % cfg.Nodes
		}
		if cfg.CommunityP > 0 {
			// Rewire v by community distance: with probability CommunityP
			// stay inside u's community; otherwise hop a geometrically
			// distributed number of communities away (long-range edges
			// decay fast, as in real social/co-purchase graphs). A small
			// residue stays fully random. This gives graphs whose
			// partition cuts are *surface-dominated* — the property that
			// lets METIS (and our partitioners) keep the unique
			// remote-neighbor count far below the edge cut, matching the
			// paper's Table 1 remote-neighbor ratios.
			r := rng.Float64()
			switch {
			case r < cfg.CommunityP:
				v = randomInCommunity(commOf, comm, commOf[u], rng, cfg.Nodes)
			case r < cfg.CommunityP+(1-cfg.CommunityP)*0.95:
				hop := 1
				for rng.Float64() < 0.4 && hop < comm-1 {
					hop++
				}
				if rng.Float64() < 0.5 {
					hop = -hop
				}
				target := ((commOf[u]+hop)%comm + comm) % comm
				// Cross-community edges land on community *hubs* (cubic
				// skew toward the block head): popular nodes mediate
				// inter-community links, which keeps the number of unique
				// remote neighbors — and hence halo size — far below the
				// raw edge cut.
				v = hubInCommunity(comm, target, rng, cfg.Nodes)
			default:
				// fully random long-range edge: keep RMAT's v
			}
			if u == v {
				continue
			}
		}
		edges = append(edges, graph.Edge{Src: int32(u), Dst: int32(v)})
		edges = append(edges, graph.Edge{Src: int32(v), Dst: int32(u)})
	}
	return graph.FromEdges(cfg.Nodes, edges)
}

// assignCommunities maps node → community in contiguous blocks shuffled a
// little, so community structure correlates with node id (helping BFS-style
// partitioners the way locality helps METIS) without being trivially equal
// to the partition.
func assignCommunities(n, k int, rng *tensor.RNG) []int {
	commOf := make([]int, n)
	per := (n + k - 1) / k
	for i := range commOf {
		commOf[i] = i / per
		if commOf[i] >= k {
			commOf[i] = k - 1
		}
	}
	// Swap 1% of nodes across communities. Each swapped node keeps its id
	// (and thus its partition) but draws its edges from a distant block,
	// adding realistic long-range noise. More than a few percent here
	// would blow up the unique-remote-neighbor count: a swapped node's
	// whole neighborhood becomes halo.
	for s := 0; s < n/100; s++ {
		i, j := rng.Intn(n), rng.Intn(n)
		commOf[i], commOf[j] = commOf[j], commOf[i]
	}
	return commOf
}

// hubInCommunity samples a node from community `want` with cubic skew
// toward the community's first nodes (its hubs).
func hubInCommunity(numComm, want int, rng *tensor.RNG, n int) int {
	lo, hi := communityRange(numComm, want, n)
	r := rng.Float64()
	v := lo + int(float64(hi-lo)*r*r*r)
	if v >= hi {
		v = hi - 1
	}
	return v
}

// communityRange returns the [lo, hi) id block of community `want`,
// clamped so the range is never empty even when n is not divisible by
// numComm (trailing communities can be empty blocks).
func communityRange(numComm, want, n int) (int, int) {
	per := (n + numComm - 1) / numComm
	lo := want * per
	hi := lo + per
	if hi > n {
		hi = n
	}
	if lo >= hi {
		hi = n
		lo = n - per
		if lo < 0 {
			lo = 0
		}
	}
	return lo, hi
}

func randomInCommunity(commOf []int, numComm, want int, rng *tensor.RNG, n int) int {
	// Communities are near-contiguous blocks; rejection-sample inside the
	// block range with a few retries, falling back to any node in range.
	lo, hi := communityRange(numComm, want, n)
	for t := 0; t < 8; t++ {
		c := lo + rng.Intn(hi-lo)
		if commOf[c] == want {
			return c
		}
	}
	return lo + rng.Intn(hi-lo)
}

// FeatureConfig controls class-conditioned feature synthesis.
type FeatureConfig struct {
	Dim         int
	ClassSignal float32 // magnitude of the class-mean offset (learnability knob)
	NeighborMix float32 // one smoothing round: x ← (1-μ)x + μ·mean(neighbors)
	Seed        uint64
}

// SynthesizeFeatures draws node features from class-conditioned Gaussians
// and optionally smooths them over the graph, mixing each node's features
// with its neighbors' mean. That copies the neighborhood's signal into the
// node's own row: under Block partitions, training with every halo row
// zeroed scores as well as fp32 (ROADMAP item 2).
func SynthesizeFeatures(g *graph.CSR, labels []int, numClasses int, cfg FeatureConfig) *tensor.Matrix {
	rng := tensor.NewRNG(cfg.Seed)
	classMeans := tensor.New(numClasses, cfg.Dim)
	classMeans.FillNormal(rng, 0, cfg.ClassSignal)
	x := tensor.New(g.N, cfg.Dim)
	x.FillNormal(rng, 0, 1)
	for i := 0; i < g.N; i++ {
		row := x.Row(i)
		mean := classMeans.Row(labels[i])
		for j := range row {
			row[j] += mean[j]
		}
	}
	if cfg.NeighborMix > 0 {
		smoothed := tensor.New(g.N, cfg.Dim)
		gm := *g
		gm.NormalizeWeights(graph.NormMean)
		gm.SpMM(smoothed, x)
		mu := cfg.NeighborMix
		for i := range x.Data {
			x.Data[i] = (1-mu)*x.Data[i] + mu*smoothed.Data[i]
		}
		gm.Weights = nil
	}
	return x
}

// splitMasks assigns nodes to train/val/test with the given fractions.
func splitMasks(n int, trainFrac, valFrac float64, rng *tensor.RNG) (train, val, test []bool) {
	train = make([]bool, n)
	val = make([]bool, n)
	test = make([]bool, n)
	perm := rng.Perm(n)
	nTrain := int(trainFrac * float64(n))
	nVal := int(valFrac * float64(n))
	for i, p := range perm {
		switch {
		case i < nTrain:
			train[p] = true
		case i < nTrain+nVal:
			val[p] = true
		default:
			test[p] = true
		}
	}
	return train, val, test
}

// labelsFromCommunities produces single-label targets equal to the node's
// latent community with a little noise, so the task is learnable but not
// trivial.
func labelsFromCommunities(commOf []int, numClasses int, noise float64, rng *tensor.RNG) []int {
	labels := make([]int, len(commOf))
	for i, c := range commOf {
		if rng.Float64() < noise {
			labels[i] = rng.Intn(numClasses)
		} else {
			labels[i] = c
		}
	}
	return labels
}

// multiLabelsFromCommunities produces a 0/1 matrix: each node gets its
// community label plus a few correlated extra labels.
func multiLabelsFromCommunities(commOf []int, numClasses int, extra float64, rng *tensor.RNG) *tensor.Matrix {
	y := tensor.New(len(commOf), numClasses)
	for i, c := range commOf {
		y.Set(i, c, 1)
		// Correlated extras: neighbors in label space (c±1) flip on with
		// probability extra.
		for _, d := range []int{-1, 1, 2} {
			if rng.Float64() < extra {
				j := ((c+d)%numClasses + numClasses) % numClasses
				y.Set(i, j, 1)
			}
		}
	}
	return y
}

// Spec describes one synthetic stand-in dataset.
type Spec struct {
	Name        string
	Nodes       int
	Edges       int
	FeatureDim  int
	NumClasses  int
	Task        Task
	CommunityP  float64
	ClassSignal float32
	NeighborMix float32
	TrainFrac   float64
	ValFrac     float64
}

// Build materializes the dataset deterministically from (spec, seed).
func (s Spec) Build(seed uint64) *Dataset {
	rng := tensor.NewRNG(seed)
	g := GenerateRMAT(RMATConfig{
		Nodes: s.Nodes, Edges: s.Edges,
		A: 0.57, B: 0.19, C: 0.19,
		Communities: s.NumClasses, CommunityP: s.CommunityP,
		Seed: rng.Uint64(),
	})
	// Recover the community assignment the generator used: regenerate with
	// the same procedure. Simpler: derive labels from contiguous blocks,
	// matching assignCommunities' near-contiguous layout.
	commRng := tensor.NewRNG(seed + 1)
	commOf := assignCommunities(s.Nodes, s.NumClasses, commRng)

	var labels *tensor.Matrix
	labelVec := labelsFromCommunities(commOf, s.NumClasses, 0.05, rng)
	if s.Task == SingleLabel {
		labels = tensor.New(s.Nodes, 1)
		for i, c := range labelVec {
			labels.Set(i, 0, float32(c))
		}
	} else {
		labels = multiLabelsFromCommunities(commOf, s.NumClasses, 0.25, rng)
	}
	x := SynthesizeFeatures(g, labelVec, s.NumClasses, FeatureConfig{
		Dim: s.FeatureDim, ClassSignal: s.ClassSignal,
		NeighborMix: s.NeighborMix, Seed: rng.Uint64(),
	})
	train, val, test := splitMasks(s.Nodes, s.TrainFrac, s.ValFrac, rng)
	return &Dataset{
		Name: s.Name, Graph: g, Features: x, Labels: labels,
		NumClasses: s.NumClasses, Task: s.Task,
		TrainMask: train, ValMask: val, TestMask: test,
	}
}

// LabelVector returns single-label targets as []int. Panics for multi-label.
func (d *Dataset) LabelVector() []int {
	if d.Task != SingleLabel {
		panic("synthetic: LabelVector on multi-label dataset " + d.Name)
	}
	out := make([]int, d.NumNodes())
	for i := range out {
		out[i] = int(d.Labels.At(i, 0))
	}
	return out
}

func (d *Dataset) String() string {
	return fmt.Sprintf("%s{N=%d, E=%d, F=%d, C=%d, %s}",
		d.Name, d.Graph.N, d.Graph.NumEdges(), d.Features.Cols, d.NumClasses, d.Task)
}

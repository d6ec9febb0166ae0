package synthetic

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/tensor"
)

func TestRMATBasicShape(t *testing.T) {
	g := GenerateRMAT(RMATConfig{Nodes: 500, Edges: 3000, A: 0.57, B: 0.19, C: 0.19, Seed: 1})
	if g.N != 500 {
		t.Fatalf("nodes %d", g.N)
	}
	if g.NumEdges() < 3000 || g.NumEdges() > 6000 {
		t.Fatalf("directed edges %d outside [3000, 6000]", g.NumEdges())
	}
}

func TestRMATSymmetric(t *testing.T) {
	g := GenerateRMAT(RMATConfig{Nodes: 200, Edges: 1000, A: 0.57, B: 0.19, C: 0.19, Seed: 2})
	for u := 0; u < g.N; u++ {
		for _, v := range g.Neighbors(u) {
			if !g.HasEdge(int(v), u) {
				t.Fatalf("edge (%d,%d) has no reverse", u, v)
			}
		}
	}
}

func TestRMATNoSelfLoops(t *testing.T) {
	g := GenerateRMAT(RMATConfig{Nodes: 300, Edges: 2000, A: 0.57, B: 0.19, C: 0.19, Seed: 3})
	for u := 0; u < g.N; u++ {
		if g.HasEdge(u, u) {
			t.Fatalf("self loop at %d", u)
		}
	}
}

func TestRMATDeterministic(t *testing.T) {
	cfg := RMATConfig{Nodes: 300, Edges: 2000, A: 0.57, B: 0.19, C: 0.19, Seed: 7}
	a, b := GenerateRMAT(cfg), GenerateRMAT(cfg)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed must give same graph")
	}
	for i := range a.ColIdx {
		if a.ColIdx[i] != b.ColIdx[i] {
			t.Fatal("same seed must give same edges")
		}
	}
}

func TestRMATPowerLawSkew(t *testing.T) {
	g := GenerateRMAT(RMATConfig{Nodes: 2000, Edges: 20000, A: 0.57, B: 0.19, C: 0.19, Seed: 5})
	if g.MaxDegree() < 4*int(g.AvgDegree()) {
		t.Fatalf("R-MAT should be skewed: max deg %d vs avg %.1f", g.MaxDegree(), g.AvgDegree())
	}
}

func TestCommunityLocality(t *testing.T) {
	// With CommunityP high, intra-community edges dominate.
	withComm := GenerateRMAT(RMATConfig{Nodes: 1000, Edges: 8000, A: 0.57, B: 0.19, C: 0.19,
		Communities: 10, CommunityP: 0.8, Seed: 11})
	intra := func(g interface {
		Neighbors(int) []int32
		Degree(int) int
	}, n, k int) float64 {
		per := (n + k - 1) / k
		in, tot := 0, 0
		for u := 0; u < n; u++ {
			for _, v := range g.Neighbors(u) {
				tot++
				if u/per == int(v)/per {
					in++
				}
			}
		}
		return float64(in) / float64(tot)
	}
	frac := intra(withComm, 1000, 10)
	if frac < 0.5 {
		t.Fatalf("community rewiring ineffective: intra fraction %.2f", frac)
	}
}

func TestRegistryNames(t *testing.T) {
	names := Names()
	want := map[string]bool{"reddit-sim": true, "yelp-sim": true, "products-sim": true, "amazon-sim": true, "tiny": true, "tiny-multi": true}
	if len(names) != len(want) {
		t.Fatalf("registry has %d entries: %v", len(names), names)
	}
	for _, n := range names {
		if !want[n] {
			t.Fatalf("unexpected dataset %q", n)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := LookupSpec("nope"); err == nil {
		t.Fatal("expected error")
	}
	if _, err := Load("nope", 1); err == nil {
		t.Fatal("expected error")
	}
}

func TestLoadTinyShape(t *testing.T) {
	ds := MustLoad("tiny", 1)
	if ds.NumNodes() != 400 || ds.Features.Cols != 32 || ds.NumClasses != 7 {
		t.Fatalf("tiny shape wrong: %v", ds)
	}
	if ds.Task != SingleLabel {
		t.Fatal("tiny is single-label")
	}
	if ds.Labels.Rows != 400 || ds.Labels.Cols != 1 {
		t.Fatal("single-label matrix shape")
	}
}

func TestMasksPartition(t *testing.T) {
	ds := MustLoad("tiny", 1)
	for i := 0; i < ds.NumNodes(); i++ {
		c := 0
		if ds.TrainMask[i] {
			c++
		}
		if ds.ValMask[i] {
			c++
		}
		if ds.TestMask[i] {
			c++
		}
		if c != 1 {
			t.Fatalf("node %d in %d splits", i, c)
		}
	}
	if MaskedCount(ds.TrainMask) < 200 {
		t.Fatalf("train split too small: %d", MaskedCount(ds.TrainMask))
	}
}

func TestLabelsInRange(t *testing.T) {
	ds := MustLoad("tiny", 1)
	for _, l := range ds.LabelVector() {
		if l < 0 || l >= ds.NumClasses {
			t.Fatalf("label %d out of range", l)
		}
	}
}

func TestLabelVectorPanicsOnMultiLabel(t *testing.T) {
	ds := MustLoad("tiny-multi", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ds.LabelVector()
}

func TestMultiLabelTargets(t *testing.T) {
	ds := MustLoad("tiny-multi", 1)
	if ds.Labels.Rows != ds.NumNodes() || ds.Labels.Cols != ds.NumClasses {
		t.Fatal("multi-label matrix shape")
	}
	for i := 0; i < ds.NumNodes(); i++ {
		pos := 0
		for _, v := range ds.Labels.Row(i) {
			if v != 0 && v != 1 {
				t.Fatalf("non-binary target %v", v)
			}
			if v == 1 {
				pos++
			}
		}
		if pos == 0 {
			t.Fatalf("node %d has no labels", i)
		}
	}
}

func TestFeaturesClassSeparated(t *testing.T) {
	// Class-conditioned features: mean distance between same-class rows
	// must be below different-class rows.
	ds := MustLoad("tiny", 1)
	labels := ds.LabelVector()
	dist := func(a, b []float32) float64 {
		var s float64
		for i := range a {
			d := float64(a[i] - b[i])
			s += d * d
		}
		return math.Sqrt(s)
	}
	rng := tensor.NewRNG(1)
	var same, diff float64
	var ns, nd int
	for trial := 0; trial < 4000; trial++ {
		i, j := rng.Intn(ds.NumNodes()), rng.Intn(ds.NumNodes())
		if i == j {
			continue
		}
		d := dist(ds.Features.Row(i), ds.Features.Row(j))
		if labels[i] == labels[j] {
			same += d
			ns++
		} else {
			diff += d
			nd++
		}
	}
	if same/float64(ns) >= diff/float64(nd) {
		t.Fatalf("features not class-separated: same=%.3f diff=%.3f", same/float64(ns), diff/float64(nd))
	}
}

func TestScaleChangesSize(t *testing.T) {
	small := MustLoad("tiny", 0.5)
	if small.NumNodes() != 200 {
		t.Fatalf("scaled nodes %d", small.NumNodes())
	}
	// Scale floor: never fewer than 2 nodes per class.
	micro := MustLoad("tiny", 0.001)
	if micro.NumNodes() < 2*micro.NumClasses {
		t.Fatalf("scale floor broken: %d nodes", micro.NumNodes())
	}
}

// TestLoadRejectsBadScale: a scale is a positive finite factor, or 0 for
// the default 1. Anything else is an error naming the value, never a
// silent full-size or degenerate dataset.
func TestLoadRejectsBadScale(t *testing.T) {
	for _, tc := range []struct {
		scale Scale
		ok    bool
	}{
		{-3, false},
		{Scale(math.NaN()), false},
		{Scale(math.Inf(1)), false},
		{Scale(math.Inf(-1)), false},
		{0, true},
		{0.25, true},
	} {
		ds, err := Load("tiny", tc.scale)
		switch {
		case tc.ok && (err != nil || ds == nil):
			t.Errorf("scale %v: %v, want a dataset", float64(tc.scale), err)
		case !tc.ok && err == nil:
			t.Errorf("scale %v: loaded %d nodes, want an error", float64(tc.scale), ds.NumNodes())
		case !tc.ok && !strings.Contains(err.Error(), fmt.Sprint(float64(tc.scale))):
			t.Errorf("scale %v: error %q does not name the value", float64(tc.scale), err)
		}
	}
	if a, b := MustLoad("tiny", 0), MustLoad("tiny", 1); a.NumNodes() != b.NumNodes() || a.Graph.NumEdges() != b.Graph.NumEdges() {
		t.Errorf("scale 0 built %d nodes / %d edges, scale 1 %d / %d", a.NumNodes(), a.Graph.NumEdges(), b.NumNodes(), b.Graph.NumEdges())
	}
}

func TestLoadDeterministic(t *testing.T) {
	a := MustLoad("tiny", 1)
	b := MustLoad("tiny", 1)
	if a.Graph.NumEdges() != b.Graph.NumEdges() {
		t.Fatal("graph differs across loads")
	}
	if !tensorEqual(a.Features, b.Features) {
		t.Fatal("features differ across loads")
	}
}

func tensorEqual(x, y *tensor.Matrix) bool {
	if x.Rows != y.Rows || x.Cols != y.Cols {
		return false
	}
	for i := range x.Data {
		if x.Data[i] != y.Data[i] {
			return false
		}
	}
	return true
}

func TestDatasetDensityOrdering(t *testing.T) {
	// The paper's key density fact: Reddit ≫ Amazon ≫ products ≫ Yelp.
	avg := func(name string) float64 {
		s, err := LookupSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		return 2 * float64(s.Edges) / float64(s.Nodes)
	}
	r, a, p, y := avg("reddit-sim"), avg("amazon-sim"), avg("products-sim"), avg("yelp-sim")
	if !(r > a && a > p && p > y) {
		t.Fatalf("density ordering broken: reddit=%.0f amazon=%.0f products=%.0f yelp=%.0f", r, a, p, y)
	}
}

package graph

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func pathGraph(n int) *CSR {
	var edges []Edge
	for i := 0; i < n-1; i++ {
		edges = append(edges, Edge{int32(i), int32(i + 1)}, Edge{int32(i + 1), int32(i)})
	}
	return FromEdges(n, edges)
}

func TestFromEdgesDedup(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 1}, {0, 1}, {0, 2}, {1, 0}})
	if g.NumEdges() != 3 {
		t.Fatalf("dedup failed: %d edges", g.NumEdges())
	}
	if g.Degree(0) != 2 || g.Degree(1) != 1 || g.Degree(2) != 0 {
		t.Fatalf("degrees wrong: %d %d %d", g.Degree(0), g.Degree(1), g.Degree(2))
	}
}

func TestFromEdgesSorted(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 3}, {0, 1}, {0, 2}})
	nbrs := g.Neighbors(0)
	for i := 1; i < len(nbrs); i++ {
		if nbrs[i] <= nbrs[i-1] {
			t.Fatal("neighbors must be sorted")
		}
	}
}

func TestFromEdgesOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromEdges(2, []Edge{{0, 5}})
}

func TestHasEdge(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 2}, {2, 3}})
	if !g.HasEdge(0, 2) || g.HasEdge(2, 0) || g.HasEdge(1, 1) {
		t.Fatal("HasEdge wrong")
	}
}

func TestWithSelfLoops(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 0}, {0, 1}})
	sl := g.WithSelfLoops()
	for i := 0; i < 3; i++ {
		if !sl.HasEdge(i, i) {
			t.Fatalf("node %d missing self loop", i)
		}
	}
	if sl.NumEdges() != 4 { // 3 loops + (0,1)
		t.Fatalf("edges %d", sl.NumEdges())
	}
}

func TestNormMeanRowsSumToOne(t *testing.T) {
	g := pathGraph(6).WithSelfLoops()
	g.NormalizeWeights(NormMean)
	for u := 0; u < g.N; u++ {
		var s float64
		for _, w := range g.EdgeWeights(u) {
			s += float64(w)
		}
		if math.Abs(s-1) > 1e-5 {
			t.Fatalf("row %d weights sum to %v", u, s)
		}
	}
}

func TestNormSymValues(t *testing.T) {
	// Path 0-1-2 with self-loops: deg(0)=2, deg(1)=3, deg(2)=2.
	g := pathGraph(3).WithSelfLoops()
	g.NormalizeWeights(NormSym)
	// Edge (0,1): 1/sqrt(2*3)
	want := 1 / math.Sqrt(6)
	nbrs := g.Neighbors(0)
	ws := g.EdgeWeights(0)
	found := false
	for i, v := range nbrs {
		if v == 1 {
			found = true
			if math.Abs(float64(ws[i])-want) > 1e-6 {
				t.Fatalf("sym weight %v, want %v", ws[i], want)
			}
		}
	}
	if !found {
		t.Fatal("edge (0,1) missing")
	}
}

func TestNormNoneClearsWeights(t *testing.T) {
	g := pathGraph(3)
	g.NormalizeWeights(NormMean)
	g.NormalizeWeights(NormNone)
	if g.Weights != nil {
		t.Fatal("NormNone should clear weights")
	}
}

func spMMNaive(g *CSR, x *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(g.N, x.Cols)
	for u := 0; u < g.N; u++ {
		for p := g.RowPtr[u]; p < g.RowPtr[u+1]; p++ {
			w := float32(1)
			if g.Weights != nil {
				w = g.Weights[p]
			}
			for j := 0; j < x.Cols; j++ {
				out.Data[u*x.Cols+j] += w * x.At(int(g.ColIdx[p]), j)
			}
		}
	}
	return out
}

func randomGraph(rng *tensor.RNG, n, e int) *CSR {
	edges := make([]Edge, 0, e)
	for i := 0; i < e; i++ {
		edges = append(edges, Edge{int32(rng.Intn(n)), int32(rng.Intn(n))})
	}
	return FromEdges(n, edges)
}

func TestSpMMMatchesNaive(t *testing.T) {
	rng := tensor.NewRNG(3)
	for trial := 0; trial < 10; trial++ {
		n := 5 + rng.Intn(50)
		g := randomGraph(rng, n, 4*n)
		g.NormalizeWeights(NormSym)
		x := tensor.New(n, 1+rng.Intn(16))
		x.FillUniform(rng, -1, 1)
		out := tensor.New(n, x.Cols)
		g.SpMM(out, x)
		if !tensor.Equal(out, spMMNaive(g, x), 1e-4) {
			t.Fatalf("trial %d: SpMM diverges", trial)
		}
	}
}

// TestSparseKernelsMatchNaiveBits holds SpMM and SpMMT to edge-by-edge
// loops that add each output element's terms in edge order, as float32 bits:
// every feature width 1–70 (every vector/tail split of tensor.Axpy), with
// weights and without, and one graph large enough to fan out.
func TestSparseKernelsMatchNaiveBits(t *testing.T) {
	rng := tensor.NewRNG(29)
	mustEqualBits := func(what string, f int, got, want *tensor.Matrix) {
		t.Helper()
		for i := range want.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
				t.Fatalf("%s width %d: element %d = %v, naive loop %v", what, f, i, got.Data[i], want.Data[i])
			}
		}
	}
	for f := 1; f <= 70; f++ {
		n := 30
		if f%31 == 0 {
			n = 700 // past the parallelOver gate
		}
		g := randomGraph(rng, n, 5*n)
		for _, norm := range []Norm{NormSym, NormNone} {
			g.NormalizeWeights(norm)
			x := tensor.New(n, f)
			x.FillUniform(rng, -1, 1)

			got := tensor.New(n, f)
			got.Fill(float32(math.NaN())) // SpMM overwrites
			g.SpMM(got, x)
			mustEqualBits("SpMM", f, got, spMMNaive(g, x))

			want := tensor.New(n, f)
			for u := 0; u < n; u++ {
				for p := g.RowPtr[u]; p < g.RowPtr[u+1]; p++ {
					w := float32(1)
					if g.Weights != nil {
						w = g.Weights[p]
					}
					for j := 0; j < f; j++ {
						want.Data[int(g.ColIdx[p])*f+j] += w * x.At(u, j)
					}
				}
			}
			got.Fill(float32(math.NaN())) // SpMMT zeroes first
			g.SpMMT(got, x)
			mustEqualBits("SpMMT", f, got, want)
		}
	}
}

// TestSpMMTIsTranspose: for any graph A and matrices x, y:
// ⟨A·x, y⟩ == ⟨x, Aᵀ·y⟩ — the adjoint property the backward pass relies on.
func TestSpMMTIsTranspose(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		n := 4 + rng.Intn(30)
		g := randomGraph(rng, n, 3*n)
		g.NormalizeWeights(NormMean)
		f := 1 + rng.Intn(8)
		x := tensor.New(n, f)
		x.FillUniform(rng, -1, 1)
		y := tensor.New(n, f)
		y.FillUniform(rng, -1, 1)
		ax := tensor.New(n, f)
		g.SpMM(ax, x)
		aty := tensor.New(n, f)
		g.SpMMT(aty, y)
		var lhs, rhs float64
		for i := range ax.Data {
			lhs += float64(ax.Data[i]) * float64(y.Data[i])
			rhs += float64(x.Data[i]) * float64(aty.Data[i])
		}
		return math.Abs(lhs-rhs) <= 1e-3*(1+math.Abs(lhs))
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSpMMRectangular(t *testing.T) {
	// Graph rows aggregate from a wider column space (local + halo).
	g := &CSR{N: 2, Cols: 4, RowPtr: []int32{0, 2, 4}, ColIdx: []int32{0, 3, 1, 2}}
	x := tensor.FromSlice(4, 1, []float32{1, 2, 3, 4})
	out := tensor.New(2, 1)
	g.SpMM(out, x)
	if out.At(0, 0) != 5 || out.At(1, 0) != 5 {
		t.Fatalf("rect SpMM got %v %v", out.At(0, 0), out.At(1, 0))
	}
	y := tensor.FromSlice(2, 1, []float32{1, 10})
	back := tensor.New(4, 1)
	g.SpMMT(back, y)
	want := []float32{1, 10, 10, 1}
	for i, w := range want {
		if back.At(i, 0) != w {
			t.Fatalf("rect SpMMT[%d] = %v want %v", i, back.At(i, 0), w)
		}
	}
}

func TestDegreeStats(t *testing.T) {
	g := pathGraph(5)
	if g.MaxDegree() != 2 {
		t.Fatalf("MaxDegree %d", g.MaxDegree())
	}
	if math.Abs(g.AvgDegree()-8.0/5.0) > 1e-9 {
		t.Fatalf("AvgDegree %v", g.AvgDegree())
	}
}

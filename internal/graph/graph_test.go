package graph

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
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
// loops that add each output element's terms in edge order, as float32 bits,
// and SpMMRows and SpMMTRows to SpMM and SpMMT on the same rows: every
// feature width 1–70 (every vector/tail split of tensor.Axpy), with weights
// and without, and graphs large enough to fan out (row lists of 560 and 700
// rows among them). The row lists are empty, one row, every fifth row left
// out, and all rows.
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

			for _, rows := range rowLists(n) {
				if k := checkRowKernels(g, x, rows); k != "" {
					t.Fatalf("width %d, %d of %d rows: %s", f, len(rows), n, k)
				}
			}
		}
	}
}

// rowLists returns the row lists the row kernels are checked on: none, one,
// every fifth row left out, and all n.
func rowLists(n int) [][]int32 {
	var most, all []int32
	for u := 0; u < n; u++ {
		if u%5 != 2 {
			most = append(most, int32(u))
		}
		all = append(all, int32(u))
	}
	return [][]int32{{}, {int32(n / 2)}, most, all}
}

// checkRowKernels holds SpMMRows over rows to SpMM's rows of x, and
// SpMMTRows of those rows' block of x to SpMMT of x with every other row
// +0, as bits (a NaN equals any NaN). It returns what differs, or "".
func checkRowKernels(g *CSR, x *tensor.Matrix, rows []int32) string {
	f := x.Cols
	full := tensor.New(g.N, f)
	g.SpMM(full, x)
	got := tensor.New(len(rows), f)
	got.Fill(float32(math.NaN())) // SpMMRows overwrites
	g.SpMMRows(got, x, rows)
	for k, u := range rows {
		if i := firstDiff(got.Row(k), full.Row(int(u))); i >= 0 {
			return fmt.Sprintf("SpMMRows row %d (graph row %d) column %d = %v, SpMM %v", k, u, i, got.Row(k)[i], full.Row(int(u))[i])
		}
	}

	// SpMMT reads a Cols-row y, so the rows' block is taken from a square
	// graph's x and the rest of y is +0.
	y, block := tensor.New(g.N, f), tensor.New(len(rows), f)
	for k, u := range rows {
		copy(y.Row(int(u)), x.Row(int(u)))
		copy(block.Row(k), x.Row(int(u)))
	}
	want := tensor.New(g.Cols, f)
	g.SpMMT(want, y)
	back := tensor.New(g.Cols, f)
	back.Fill(float32(math.NaN())) // SpMMTRows zeroes first
	g.SpMMTRows(back, block, rows)
	if i := firstDiff(back.Data, want.Data); i >= 0 {
		return fmt.Sprintf("SpMMTRows element %d = %v, SpMMT %v", i, back.Data[i], want.Data[i])
	}
	return ""
}

// firstDiff returns the first index where a and b differ as bits, a NaN
// equal to any NaN, or -1.
func firstDiff(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) && !(a[i] != a[i] && b[i] != b[i]) {
			return i
		}
	}
	return -1
}

// TestRowKernelsRefuseBadRows: a row out of range, repeated or out of order
// panics in both row kernels, naming the kernel.
func TestRowKernelsRefuseBadRows(t *testing.T) {
	g := pathGraph(5)
	x := tensor.New(5, 3)
	for _, rows := range [][]int32{{-1}, {5}, {1, 1}, {3, 2}, {0, 4, 9}} {
		for _, op := range []string{"SpMMRows", "SpMMTRows"} {
			func() {
				defer func() {
					if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), op) {
						t.Errorf("%s over rows %v: recovered %v, want a panic naming %s", op, rows, r, op)
					}
				}()
				if op == "SpMMRows" {
					g.SpMMRows(tensor.New(len(rows), 3), x, rows)
				} else {
					g.SpMMTRows(tensor.New(5, 3), tensor.New(len(rows), 3), rows)
				}
			}()
		}
	}
}

// FuzzSpMMRowsMatchesSpMM holds the row kernels to SpMM and SpMMT on the
// same rows (checkRowKernels) over fuzzed graphs, row lists and values: raw
// is read as a node count, a width, a weighting, a row mask of one bit per
// node and then x's leading elements as float32 bits (NaN, ±Inf, ±0 and
// denormals included); x's other elements are drawn from seed.
func FuzzSpMMRowsMatchesSpMM(f *testing.F) {
	f.Add(uint64(1), []byte{20, 5, 1, 0xb5, 0x5a, 0x0f})
	f.Add(uint64(2), []byte{200, 16, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(uint64(3), []byte{7, 9, 1, 0x41, 0, 0, 0xc0, 0x7f, 0, 0, 0x80, 0xff, 0, 0, 0, 0x80, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, seed uint64, raw []byte) {
		if len(raw) < 3 {
			return
		}
		n, width, weighted := 1+3*int(raw[0]), 1+int(raw[1])%40, raw[2]&1 == 1
		raw = raw[3:]
		mask := raw[:min(len(raw), (n+7)/8)]
		raw = raw[len(mask):]
		rng := tensor.NewRNG(seed)
		g := randomGraph(rng, n, 4*n)
		if weighted {
			g.NormalizeWeights(NormSym)
		}
		var rows []int32
		for u := 0; u < n; u++ {
			if u/8 < len(mask) && mask[u/8]>>(u%8)&1 == 1 {
				rows = append(rows, int32(u))
			}
		}
		x := tensor.New(n, width)
		x.FillUniform(rng, -1, 1)
		for i := 0; i+4 <= len(raw) && i/4 < len(x.Data); i += 4 {
			x.Data[i/4] = math.Float32frombits(binary.LittleEndian.Uint32(raw[i:]))
		}
		if k := checkRowKernels(g, x, rows); k != "" {
			t.Fatalf("%d nodes, width %d, %d rows: %s", n, width, len(rows), k)
		}
	})
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

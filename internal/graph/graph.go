// Package graph provides compressed sparse row (CSR) graphs, the
// normalization schemes used by GCN and GraphSAGE aggregation, and the
// sparse-dense kernels (SpMM and its transpose) that implement GNN
// message passing on a single device.
package graph

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"repro/internal/tensor"
)

// CSR is a weighted directed graph in compressed sparse row form.
// Edge e of node u lives at index p ∈ [RowPtr[u], RowPtr[u+1]) with
// destination ColIdx[p] and weight Weights[p] (the aggregation coefficient
// α_{col,row} of Eqn. 3 in the paper). An unweighted graph has nil Weights,
// interpreted as all-ones.
type CSR struct {
	N       int // number of row nodes
	Cols    int // number of column nodes (== N for square graphs)
	RowPtr  []int32
	ColIdx  []int32
	Weights []float32
}

// NumEdges returns the number of stored (directed) edges.
func (g *CSR) NumEdges() int { return len(g.ColIdx) }

// Degree returns the out-degree of node u.
func (g *CSR) Degree(u int) int { return int(g.RowPtr[u+1] - g.RowPtr[u]) }

// Neighbors returns the column indices adjacent to row u (a view).
func (g *CSR) Neighbors(u int) []int32 {
	return g.ColIdx[g.RowPtr[u]:g.RowPtr[u+1]]
}

// EdgeWeights returns the weights of row u's edges (a view); nil if the
// graph is unweighted.
func (g *CSR) EdgeWeights(u int) []float32 {
	if g.Weights == nil {
		return nil
	}
	return g.Weights[g.RowPtr[u]:g.RowPtr[u+1]]
}

// Edge is a directed edge used by builders.
type Edge struct{ Src, Dst int32 }

// FromEdges builds a square CSR over n nodes from an edge list. Duplicate
// edges are removed; self-loops are kept as given.
func FromEdges(n int, edges []Edge) *CSR {
	deg := make([]int32, n)
	for _, e := range edges {
		if e.Src < 0 || int(e.Src) >= n || e.Dst < 0 || int(e.Dst) >= n {
			panic(fmt.Sprintf("graph: edge (%d,%d) out of range for n=%d", e.Src, e.Dst, n))
		}
		deg[e.Src]++
	}
	rowPtr := make([]int32, n+1)
	for i := 0; i < n; i++ {
		rowPtr[i+1] = rowPtr[i] + deg[i]
	}
	colIdx := make([]int32, len(edges))
	cursor := make([]int32, n)
	copy(cursor, rowPtr[:n])
	for _, e := range edges {
		colIdx[cursor[e.Src]] = e.Dst
		cursor[e.Src]++
	}
	g := &CSR{N: n, Cols: n, RowPtr: rowPtr, ColIdx: colIdx}
	g.sortAndDedup()
	return g
}

// sortAndDedup sorts each adjacency list and removes duplicate edges.
func (g *CSR) sortAndDedup() {
	newCol := make([]int32, 0, len(g.ColIdx))
	newPtr := make([]int32, g.N+1)
	for u := 0; u < g.N; u++ {
		nbrs := g.ColIdx[g.RowPtr[u]:g.RowPtr[u+1]]
		sort.Slice(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] })
		var prev int32 = -1
		for _, v := range nbrs {
			if v != prev {
				newCol = append(newCol, v)
				prev = v
			}
		}
		newPtr[u+1] = int32(len(newCol))
	}
	g.RowPtr = newPtr
	g.ColIdx = newCol
}

// WithSelfLoops returns a copy of g with a self-loop added to every node
// that lacks one.
func (g *CSR) WithSelfLoops() *CSR {
	edges := make([]Edge, 0, len(g.ColIdx)+g.N)
	for u := 0; u < g.N; u++ {
		edges = append(edges, Edge{int32(u), int32(u)})
		for _, v := range g.Neighbors(u) {
			if v != int32(u) {
				edges = append(edges, Edge{int32(u), v})
			}
		}
	}
	return FromEdges(g.N, edges)
}

// HasEdge reports whether edge (u, v) exists (binary search).
func (g *CSR) HasEdge(u, v int) bool {
	nbrs := g.Neighbors(u)
	i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= int32(v) })
	return i < len(nbrs) && nbrs[i] == int32(v)
}

// Norm selects the edge-weight normalization applied by NormalizeWeights.
type Norm int

const (
	// NormNone leaves all coefficients at 1 (plain sum aggregation).
	NormNone Norm = iota
	// NormSym is GCN normalization: α_{u,v} = 1/sqrt(deg(u)·deg(v)), using
	// in-degrees of the (self-looped) graph.
	NormSym
	// NormMean is mean aggregation: α_{u,v} = 1/deg(v) for each edge into v.
	NormMean
)

// NormalizeWeights attaches aggregation coefficients to g in place.
// Degrees are computed from g itself, so call after WithSelfLoops as
// appropriate.
func (g *CSR) NormalizeWeights(n Norm) {
	switch n {
	case NormNone:
		g.Weights = nil
	case NormMean:
		g.Weights = make([]float32, len(g.ColIdx))
		for u := 0; u < g.N; u++ {
			d := g.Degree(u)
			if d == 0 {
				continue
			}
			w := 1 / float32(d)
			for p := g.RowPtr[u]; p < g.RowPtr[u+1]; p++ {
				g.Weights[p] = w
			}
		}
	case NormSym:
		// Row degrees double as column degrees only for symmetric graphs;
		// compute column degrees explicitly so directed graphs also work.
		colDeg := make([]int32, g.Cols)
		for _, v := range g.ColIdx {
			colDeg[v]++
		}
		g.Weights = make([]float32, len(g.ColIdx))
		for u := 0; u < g.N; u++ {
			du := float32(g.Degree(u))
			for p := g.RowPtr[u]; p < g.RowPtr[u+1]; p++ {
				dv := float32(colDeg[g.ColIdx[p]])
				if du > 0 && dv > 0 {
					g.Weights[p] = 1 / sqrt32(du*dv)
				}
			}
		}
	default:
		panic(fmt.Sprintf("graph: unknown norm %d", n))
	}
}

func sqrt32(x float32) float32 { return float32(math.Sqrt(float64(x))) }

// SpMM computes out = A × X where A is g (N×Cols sparse) and X is Cols×F
// dense: out[u] = Σ_{v ∈ N(u)} α_{v,u}·X[v]. out must be N×F.
func (g *CSR) SpMM(out, x *tensor.Matrix) {
	if x.Rows != g.Cols || out.Rows != g.N || out.Cols != x.Cols {
		panic(fmt.Sprintf("graph: SpMM shape mismatch graph %dx%d, x %dx%d, out %dx%d",
			g.N, g.Cols, x.Rows, x.Cols, out.Rows, out.Cols))
	}
	if tensor.KernelHook != nil {
		tensor.KernelHook("SpMM", [3]int{len(g.ColIdx), x.Cols})
	}
	g.spMM(out, x, nil, g.N)
}

// SpMMRows is SpMM over the listed rows of A: row k of out is row rows[k]
// of A × X, computed by the same per-row loop, so its bits are SpMM's row
// rows[k]. rows must ascend strictly within [0, N); out must be
// len(rows)×F. It reports itself to tensor.KernelHook as the SpMM of the
// rows' edges.
func (g *CSR) SpMMRows(out, x *tensor.Matrix, rows []int32) {
	nnz := g.rowEdges("SpMMRows", rows)
	if x.Rows != g.Cols || out.Rows != len(rows) || out.Cols != x.Cols {
		panic(fmt.Sprintf("graph: SpMMRows shape mismatch graph %dx%d, %d rows, x %dx%d, out %dx%d",
			g.N, g.Cols, len(rows), x.Rows, x.Cols, out.Rows, out.Cols))
	}
	if tensor.KernelHook != nil {
		tensor.KernelHook("SpMM", [3]int{nnz, x.Cols})
	}
	g.spMM(out, x, rows, len(rows))
}

// spMM fills the n rows of out, split over parallelOver's workers: row k is
// graph row rows[k], or row k itself when rows is nil.
func (g *CSR) spMM(out, x *tensor.Matrix, rows []int32, n int) {
	// The sequential path skips the closure entirely: one passed to
	// parallelOver always heap-escapes (the go statement leaks it).
	if !parallelizable(n) {
		g.spMMRange(out, x, rows, 0, n)
		return
	}
	parallelOver(n, func(lo, hi int) { g.spMMRange(out, x, rows, lo, hi) })
}

func (g *CSR) spMMRange(out, x *tensor.Matrix, rows []int32, lo, hi int) {
	for k := lo; k < hi; k++ {
		u := k
		if rows != nil {
			u = int(rows[k])
		}
		orow := out.Row(k)
		for j := range orow {
			orow[j] = 0
		}
		start, end := g.RowPtr[u], g.RowPtr[u+1]
		for p := start; p < end; p++ {
			w := float32(1)
			if g.Weights != nil {
				w = g.Weights[p]
			}
			tensor.Axpy(orow, x.Row(int(g.ColIdx[p])), w)
		}
	}
}

// SpMMT computes out = Aᵀ × Y: the backward counterpart of SpMM, scattering
// each row-u gradient back to u's neighbors. out must be Cols×F; it is
// zeroed first. Sequential over rows to keep scatter-adds race-free.
func (g *CSR) SpMMT(out, y *tensor.Matrix) {
	if y.Rows != g.N || out.Rows != g.Cols || out.Cols != y.Cols {
		panic(fmt.Sprintf("graph: SpMMT shape mismatch graph %dx%d, y %dx%d, out %dx%d",
			g.N, g.Cols, y.Rows, y.Cols, out.Rows, out.Cols))
	}
	if tensor.KernelHook != nil {
		tensor.KernelHook("SpMMT", [3]int{len(g.ColIdx), y.Cols})
	}
	g.spMMT(out, y, nil, g.N)
}

// SpMMTRows is SpMMT over the listed rows of A: row k of y is row rows[k]'s
// gradient, scattered to that row's neighbours, rows in ascending order.
// Each element of out so receives the terms SpMMT would add from the same
// rows, in the same order; a row left out adds nothing, where SpMMT would
// add its terms. rows must ascend strictly within [0, N); y must be
// len(rows)×F and out Cols×F, zeroed first. It reports itself to
// tensor.KernelHook as the SpMMT of the rows' edges.
func (g *CSR) SpMMTRows(out, y *tensor.Matrix, rows []int32) {
	nnz := g.rowEdges("SpMMTRows", rows)
	if y.Rows != len(rows) || out.Rows != g.Cols || out.Cols != y.Cols {
		panic(fmt.Sprintf("graph: SpMMTRows shape mismatch graph %dx%d, %d rows, y %dx%d, out %dx%d",
			g.N, g.Cols, len(rows), y.Rows, y.Cols, out.Rows, out.Cols))
	}
	if tensor.KernelHook != nil {
		tensor.KernelHook("SpMMT", [3]int{nnz, y.Cols})
	}
	g.spMMT(out, y, rows, len(rows))
}

// spMMT zeroes out and scatters the n rows of y: row k is graph row
// rows[k]'s, or row k's itself when rows is nil.
func (g *CSR) spMMT(out, y *tensor.Matrix, rows []int32, n int) {
	out.Zero()
	for k := 0; k < n; k++ {
		u := k
		if rows != nil {
			u = int(rows[k])
		}
		yrow := y.Row(k)
		start, end := g.RowPtr[u], g.RowPtr[u+1]
		for p := start; p < end; p++ {
			w := float32(1)
			if g.Weights != nil {
				w = g.Weights[p]
			}
			tensor.Axpy(out.Row(int(g.ColIdx[p])), yrow, w)
		}
	}
}

// rowEdges returns how many edges the listed rows hold, and panics, naming
// op, unless rows ascend strictly within [0, N).
func (g *CSR) rowEdges(op string, rows []int32) int {
	nnz, prev := 0, int32(-1)
	for k, u := range rows {
		if u <= prev || int(u) >= g.N {
			panic(fmt.Sprintf("graph: %s row %d (list position %d) is out of range [0, %d) or not above the row before it", op, u, k, g.N))
		}
		nnz += int(g.RowPtr[u+1] - g.RowPtr[u])
		prev = u
	}
	return nnz
}

// parallelizable reports whether parallelOver would fan out over n rows:
// below two chunks of 256 rows the goroutine spawn costs more than the rows
// it splits.
func parallelizable(n int) bool {
	return runtime.GOMAXPROCS(0) > 1 && n >= 512
}

// parallelOver runs fn over [0, n) split into one contiguous chunk per
// GOMAXPROCS worker. fn must only touch its own rows, so the split cannot
// change a result.
func parallelOver(n int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, min(lo+chunk, n))
	}
	wg.Wait()
}

// AvgDegree returns the mean out-degree.
func (g *CSR) AvgDegree() float64 {
	if g.N == 0 {
		return 0
	}
	return float64(len(g.ColIdx)) / float64(g.N)
}

// MaxDegree returns the largest out-degree.
func (g *CSR) MaxDegree() int {
	mx := 0
	for u := 0; u < g.N; u++ {
		if d := g.Degree(u); d > mx {
			mx = d
		}
	}
	return mx
}

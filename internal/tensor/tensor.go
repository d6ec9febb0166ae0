// Package tensor provides dense float32 matrices and the numeric kernels
// used throughout the AdaQP reproduction: GEMM and its two transposed
// variants, elementwise maps, row reductions and deterministic random
// initialization.
//
// All matrices are row-major. The large kernels split work across goroutines
// by output rows; each goroutine writes a disjoint row range, so a result
// does not depend on GOMAXPROCS or on how the rows were split.
//
// The order of operations on each output element is part of the API: an
// element of a × b or aᵀ × b is 0 plus its k products added one at a time in
// ascending k, every product rounded to float32 before it is added (no fused
// multiply-add), a product skipped when its a element is ±0. Fixed-seed
// losses, wire bytes and the golden files are functions of that order. In Go
// that is a chain of Axpy calls, one per k, which is also the loop under
// AXPY and graph's SpMM/SpMMT. An element of a × bᵀ is dot's
// sum instead, and dot's grouping is part of the same contract: 0, plus
// ((p0+p1)+p2)+p3 for every four k in ascending order, plus the leftover
// products one at a time. On amd64 with AVX2 (cpu.Vector) all three are
// assembly that vectorises across the output index — Axpy one k at a time,
// MatMul and TMatMul with the output row held in registers across all k,
// MatMulT over a transposed copy of b — and keeps multiply and add apart for
// exactly this reason; everywhere else, and under the noasm build tag, they
// are the Go loops the assembly is tested against. A compiler that fuses
// float32 multiply-adds in Go code (arm64, GOAMD64=v3) rounds differently,
// which is why internal/core/testdata/codec_golden.txt is checked on amd64
// only and was generated with GOAMD64=v1.
package tensor

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/cpu"
)

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// New returns a zero matrix with the given shape.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromSlice wraps data (not copied) as a rows×cols matrix.
func FromSlice(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice got %d elements for %dx%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// SameShape reports whether m and o have identical dimensions.
func (m *Matrix) SameShape(o *Matrix) bool { return m.Rows == o.Rows && m.Cols == o.Cols }

// Zero sets every element to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float32) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// CopyFrom copies o's contents into m. Shapes must match.
func (m *Matrix) CopyFrom(o *Matrix) {
	mustSameShape("CopyFrom", m, o)
	copy(m.Data, o.Data)
}

func mustSameShape(op string, a, b *Matrix) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// parallelizable reports whether parallelRows would actually fan out for
// this many rows. Kernels check it BEFORE building their closure: a
// closure passed to parallelRows always heap-escapes (the go statement
// leaks it), so the sequential path must call the range body directly to
// stay allocation-free.
func parallelizable(rows int) bool {
	// Below 256 rows the goroutine spawn (one closure + stack per worker,
	// every call) costs more than the row loop it splits; real-dataset
	// shapes are thousands of rows, well past the gate.
	return runtime.GOMAXPROCS(0) > 1 && rows >= 256
}

// parallelRows runs fn over [0, rows) split into contiguous chunks, one per
// worker. fn must only touch its own row range.
func parallelRows(rows int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > rows {
		workers = rows
	}
	if workers <= 1 || !parallelizable(rows) {
		fn(0, rows)
		return
	}
	var wg sync.WaitGroup
	chunk := (rows + workers - 1) / workers
	for lo := 0; lo < rows; lo += chunk {
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// MatMul returns a × b (shapes m×k and k×n).
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul inner dim mismatch %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes out = a × b, overwriting out.
func MatMulInto(out, a, b *Matrix) {
	if a.Cols != b.Rows || out.Rows != a.Rows || out.Cols != b.Cols {
		panic("tensor: MatMulInto shape mismatch")
	}
	if KernelHook != nil {
		KernelHook("MatMul", [3]int{a.Rows, a.Cols, b.Cols})
	}
	if !parallelizable(a.Rows) {
		matMulRange(out, a, b, 0, a.Rows)
		return
	}
	parallelRows(a.Rows, func(lo, hi int) { matMulRange(out, a, b, lo, hi) })
}

// matMulRange fills rows [lo, hi) of out. The Go loop skips a term whose α
// is ±0 and accumAVX2 adds it, which gives the same bits exactly when the
// term is ±0: every sum starts at +0, a sum under round-to-nearest is −0
// only when both its addends are, so no sum is ever −0 and adding ±0 leaves
// it as it was. The term is ±0 wherever its row of b is finite, so one scan
// of b — O(k·n) against the range's O(rows·k·n) — sends the range to the
// kernel.
func matMulRange(out, a, b *Matrix, lo, hi int) {
	inner, n := a.Cols, b.Cols
	if cpu.Vector(n) && inner > 0 && lo < hi && allFinite(b.Data[:inner*n]) {
		// Slicing first holds the kernel's reads and writes to the matrices.
		o, ar, br := out.Data[lo*n:hi*n], a.Data[lo*inner:hi*inner], b.Data[:inner*n]
		accumAVX2(&o[0], hi-lo, n, &ar[0], inner, 1, &br[0], inner, false)
		return
	}
	for i := lo; i < hi; i++ {
		orow := out.Data[i*n : (i+1)*n]
		for j := range orow {
			orow[j] = 0
		}
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		// ikj loop order: stream through b rows for cache locality.
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*n : (k+1)*n]
			Axpy(orow, brow, av)
		}
	}
}

// Axpy computes dst[i] += alpha*src[i] for every i < len(dst): one float32
// multiply, then one float32 add, per element, never fused. src must be at
// least as long as dst (it panics otherwise) and must not overlap it at a
// different offset. Every axpy-shaped loop of the dense and sparse kernels
// runs through here; the AVX2 path and the portable loop produce the same
// bits for every input (a NaN result is a NaN in both; its payload is no
// more specified than it is for compiled Go code).
func Axpy(dst, src []float32, alpha float32) {
	src = src[:len(dst)]
	if cpu.Vector(len(dst)) {
		axpyAVX2(dst, src, alpha)
		return
	}
	axpyGo(dst, src, alpha)
}

// axpyGo is the portable Axpy and the oracle the assembly is held to.
func axpyGo(dst, src []float32, alpha float32) {
	n := len(dst)
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] += alpha * src[i]
		dst[i+1] += alpha * src[i+1]
		dst[i+2] += alpha * src[i+2]
		dst[i+3] += alpha * src[i+3]
	}
	for ; i < n; i++ {
		dst[i] += alpha * src[i]
	}
}

// MatMulT returns a × bᵀ (shapes m×k and n×k → m×n).
func MatMulT(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Rows)
	MatMulTInto(out, a, b)
	return out
}

// MatMulTInto computes out = a × bᵀ, overwriting out. Every element is
// dot(row of a, row of b), bit for bit, whichever path computes it.
func MatMulTInto(out, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulT inner dim mismatch %dx%d × (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Rows || out.Cols != b.Rows {
		panic("tensor: MatMulTInto shape mismatch")
	}
	if KernelHook != nil {
		KernelHook("MatMulT", [3]int{a.Rows, a.Cols, b.Rows})
	}
	// The vector kernel takes whole groups of eight output columns from a
	// copy of b transposed once per call; the columns past them, and every
	// column without AVX2, are dot over b's own rows.
	vecCols := 0
	var bt []float32
	if cpu.Vector(b.Rows) {
		vecCols = b.Rows &^ 7
		scratch := transposeCols(b, vecCols)
		defer transposePool.Put(scratch)
		bt = *scratch
	}
	if !parallelizable(a.Rows) {
		matMulTRange(out, a, b, bt, vecCols, 0, a.Rows)
		return
	}
	parallelRows(a.Rows, func(lo, hi int) { matMulTRange(out, a, b, bt, vecCols, lo, hi) })
}

// KernelHook, when non-nil, is called with the name and shape of every
// MatMul, TMatMul or MatMulT as (m, k, n), graph's SpMM or SpMMT as (nnz,
// cols) and MinMax as (len): a test-only census of the work a run asks for
// (CI greps for that).
var KernelHook func(kernel string, shape [3]int)

// transposePool keeps MatMulTInto's transposed copies of b between calls.
var transposePool = sync.Pool{New: func() any { return new([]float32) }}

// transposeCols returns pooled scratch holding the first cols rows of b,
// transposed: b.Cols rows of cols floats.
func transposeCols(b *Matrix, cols int) *[]float32 {
	scratch := transposePool.Get().(*[]float32)
	need := b.Cols * cols
	if cap(*scratch) < need {
		*scratch = make([]float32, need)
	}
	bt := (*scratch)[:need]
	*scratch = bt
	for j := 0; j < cols; j++ {
		for k, v := range b.Row(j) {
			bt[k*cols+j] = v
		}
	}
	return scratch
}

// matMulTRange fills rows [lo, hi) of out: the first vecCols columns by the
// vector kernel from bt, the rest by dot.
func matMulTRange(out, a, b *Matrix, bt []float32, vecCols, lo, hi int) {
	k, n := a.Cols, b.Rows
	for i := lo; i < hi; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*n : (i+1)*n]
		if vecCols > 0 {
			dotColsAVX2(orow[:vecCols], arow, bt)
		}
		for j := vecCols; j < n; j++ {
			orow[j] = dot(arow, b.Data[j*k:(j+1)*k])
		}
	}
}

// TMatMul returns aᵀ × b (shapes k×m and k×n → m×n).
func TMatMul(a, b *Matrix) *Matrix {
	out := New(a.Cols, b.Cols)
	TMatMulInto(out, a, b)
	return out
}

// TMatMulInto computes out = aᵀ × b, overwriting out (zeroed first, since
// the kernel accumulates).
func TMatMulInto(out, a, b *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: TMatMul inner dim mismatch (%dx%d)ᵀ × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Cols || out.Cols != b.Cols {
		panic("tensor: TMatMulInto shape mismatch")
	}
	if KernelHook != nil {
		KernelHook("TMatMul", [3]int{a.Cols, a.Rows, b.Cols})
	}
	out.Zero()
	if !parallelizable(a.Cols) {
		tMatMulRange(out, a, b, 0, a.Cols)
		return
	}
	// Split over columns of a (rows of the output) so goroutines stay disjoint.
	parallelRows(a.Cols, func(lo, hi int) { tMatMulRange(out, a, b, lo, hi) })
}

// tMatMulRange adds rows [lo, hi) of aᵀ × b into out. accumAVX2 adds the
// terms of ±0 αs, which the Go loop skips; as in matMulRange that changes no
// bit unless such a term is 0·±Inf or 0·NaN, and then the sum it enters is
// NaN from there on. Here b is the long operand and the range of out the
// short one, so the range is checked after the kernel rather than b before
// it: a range without a NaN is the Go loop's, bit for bit, and one with a
// NaN is computed again by the Go loop.
func tMatMulRange(out, a, b *Matrix, lo, hi int) {
	m, n := a.Cols, b.Cols
	if cpu.Vector(n) && lo < hi {
		o := out.Data[lo*n : hi*n]
		// a is walked down its columns, so the inner dimension goes in
		// chunks whose rows of a and b stay in L1 while every tile of out
		// passes over them. The sums are stored between chunks and loaded
		// back, which leaves each element's additions in ascending k.
		for k0 := 0; k0 < a.Rows; k0 += tMatMulChunk {
			k1 := min(k0+tMatMulChunk, a.Rows)
			ar, br := a.Data[k0*m+lo:(k1-1)*m+hi], b.Data[k0*n:k1*n]
			accumAVX2(&o[0], hi-lo, n, &ar[0], 1, m, &br[0], k1-k0, true)
		}
		if !hasNaN(o) {
			return
		}
		clear(o)
	}
	for k := 0; k < a.Rows; k++ {
		arow := a.Data[k*a.Cols : (k+1)*a.Cols]
		brow := b.Data[k*b.Cols : (k+1)*b.Cols]
		for i := lo; i < hi; i++ {
			if av := arow[i]; av != 0 {
				Axpy(out.Data[i*b.Cols:(i+1)*b.Cols], brow, av)
			}
		}
	}
}

// allFinite reports whether no element of v is ±Inf or NaN: x − x is +0 for
// every finite x and NaN otherwise.
func allFinite(v []float32) bool {
	for _, x := range v {
		if x-x != 0 {
			return false
		}
	}
	return true
}

// hasNaN reports whether some element of v is NaN.
func hasNaN(v []float32) bool {
	for _, x := range v {
		if x != x {
			return true
		}
	}
	return false
}

// tMatMulChunk is how many rows of a and b one pass of tMatMulRange's kernel
// takes: 128 rows of a 64-wide b are 32 KiB.
const tMatMulChunk = 128

// dot is the portable a·b and the oracle the MatMulT assembly is held to;
// its grouping of four products is part of the per-element order contract.
func dot(a, b []float32) float32 {
	var s float32
	n := len(a)
	i := 0
	for ; i+4 <= n; i += 4 {
		s += a[i]*b[i] + a[i+1]*b[i+1] + a[i+2]*b[i+2] + a[i+3]*b[i+3]
	}
	for ; i < n; i++ {
		s += a[i] * b[i]
	}
	return s
}

// Dot returns the dot product of two equal-length vectors.
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("tensor: Dot length mismatch")
	}
	return dot(a, b)
}

// Transpose returns mᵀ.
func (m *Matrix) Transpose() *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j*m.Rows+i] = v
		}
	}
	return out
}

// Add returns a + b elementwise.
func Add(a, b *Matrix) *Matrix {
	mustSameShape("Add", a, b)
	out := a.Clone()
	out.AddInPlace(b)
	return out
}

// AddInPlace computes m += o.
func (m *Matrix) AddInPlace(o *Matrix) {
	mustSameShape("AddInPlace", m, o)
	Axpy(m.Data, o.Data, 1) // 1·v is v, so each element is m + v
}

// Scale multiplies every element by alpha, in place.
func (m *Matrix) Scale(alpha float32) {
	for i := range m.Data {
		m.Data[i] *= alpha
	}
}

// AXPY computes m += alpha * o.
func (m *Matrix) AXPY(alpha float32, o *Matrix) {
	mustSameShape("AXPY", m, o)
	Axpy(m.Data, o.Data, alpha)
}

// RowSlice returns a new matrix holding rows [lo, hi) of m (copied).
func (m *Matrix) RowSlice(lo, hi int) *Matrix {
	if lo < 0 || hi > m.Rows || lo > hi {
		panic(fmt.Sprintf("tensor: RowSlice [%d,%d) out of range for %d rows", lo, hi, m.Rows))
	}
	out := New(hi-lo, m.Cols)
	copy(out.Data, m.Data[lo*m.Cols:hi*m.Cols])
	return out
}

// GatherRows returns a new matrix whose i-th row is m's row idx[i].
func (m *Matrix) GatherRows(idx []int) *Matrix {
	out := New(len(idx), m.Cols)
	for i, r := range idx {
		copy(out.Row(i), m.Row(r))
	}
	return out
}

// ConcatCols returns [a | b] (horizontal concatenation).
func ConcatCols(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic("tensor: ConcatCols row mismatch")
	}
	out := New(a.Rows, a.Cols+b.Cols)
	for i := 0; i < a.Rows; i++ {
		copy(out.Row(i)[:a.Cols], a.Row(i))
		copy(out.Row(i)[a.Cols:], b.Row(i))
	}
	return out
}

// SplitCols splits m into its first aCols columns and the remainder.
func (m *Matrix) SplitCols(aCols int) (*Matrix, *Matrix) {
	if aCols < 0 || aCols > m.Cols {
		panic("tensor: SplitCols out of range")
	}
	a := New(m.Rows, aCols)
	b := New(m.Rows, m.Cols-aCols)
	for i := 0; i < m.Rows; i++ {
		copy(a.Row(i), m.Row(i)[:aCols])
		copy(b.Row(i), m.Row(i)[aCols:])
	}
	return a, b
}

// Sum returns the sum of all elements (accumulated in float64).
func (m *Matrix) Sum() float64 {
	var s float64
	for _, v := range m.Data {
		s += float64(v)
	}
	return s
}

// FrobeniusNorm returns sqrt(Σ x²).
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.Data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// MaxAbs returns max |x| over all elements.
func (m *Matrix) MaxAbs() float32 {
	var mx float32
	for _, v := range m.Data {
		if v < 0 {
			v = -v
		}
		if v > mx {
			mx = v
		}
	}
	return mx
}

// MinMax returns the minimum and maximum element of a vector, (0, 0) for an
// empty one, with the bits a left-to-right scan `if x < mn { mn = x }`,
// `if x > mx { mx = x }` from mn = mx = v[0] leaves:
//
//   - the result is NaN only if v[0] is NaN (then both are); a NaN anywhere
//     else compares false and is skipped;
//   - among elements that compare equal the first one seen wins. Only the
//     two zeros are equal with different bits: the minimum of {+0, −0} is +0
//     and of {−0, +0} is −0, likewise the maximum.
//
// The quantizer stores mn as a row's zero point, so a zero's sign reaches
// the wire (quant.RowMeta.Zero, the golden frames): the contract is
// load-bearing, and the AVX2 path is held to minMaxGo as bits.
func MinMax(v []float32) (mn, mx float32) {
	if KernelHook != nil {
		KernelHook("MinMax", [3]int{len(v)})
	}
	if !cpu.Vector(len(v)) {
		return minMaxGo(v)
	}
	mn, mx = minMaxAVX2(v)
	if mn == 0 || mx == 0 {
		// The lanes do not know which zero came first; the row does.
		z := firstZero(v)
		if mn == 0 {
			mn = z
		}
		if mx == 0 {
			mx = z
		}
	}
	return mn, mx
}

// minMaxGo is MinMax's portable loop and the oracle of the vector path.
func minMaxGo(v []float32) (mn, mx float32) {
	if len(v) == 0 {
		return 0, 0
	}
	mn, mx = v[0], v[0]
	for _, x := range v[1:] {
		if x < mn {
			mn = x
		}
		if x > mx {
			mx = x
		}
	}
	return mn, mx
}

// firstZero returns the first ±0 of v, which has one.
func firstZero(v []float32) float32 {
	i := 0
	for v[i] != 0 {
		i++
	}
	return v[i]
}

// ArgMaxRow returns the column index of the largest element in row i.
func (m *Matrix) ArgMaxRow(i int) int {
	row := m.Row(i)
	best, bv := 0, row[0]
	for j := 1; j < len(row); j++ {
		if row[j] > bv {
			bv = row[j]
			best = j
		}
	}
	return best
}

// Equal reports elementwise equality within tol.
func Equal(a, b *Matrix, tol float64) bool {
	if !a.SameShape(b) {
		return false
	}
	for i := range a.Data {
		if math.Abs(float64(a.Data[i])-float64(b.Data[i])) > tol {
			return false
		}
	}
	return true
}

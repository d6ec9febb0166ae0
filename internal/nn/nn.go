// Package nn provides the neural-network building blocks of the
// reproduction with hand-written backward passes: parameters, Linear,
// ReLU, LayerNorm, Dropout, softmax cross-entropy and sigmoid BCE losses,
// and the Adam optimizer. Graph aggregation itself lives with the trainers
// (internal/core) because in distributed training it is interleaved with
// halo communication.
package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Param is one trainable tensor with its gradient and Adam state.
type Param struct {
	Name  string
	Value *tensor.Matrix
	Grad  *tensor.Matrix
	m, v  *tensor.Matrix // Adam moments
}

// NewParam allocates a parameter and its gradient.
func NewParam(name string, rows, cols int) *Param {
	return &Param{
		Name:  name,
		Value: tensor.New(rows, cols),
		Grad:  tensor.New(rows, cols),
		m:     tensor.New(rows, cols),
		v:     tensor.New(rows, cols),
	}
}

// ZeroGrad clears the gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// NumElements returns the parameter size.
func (p *Param) NumElements() int { return len(p.Value.Data) }

// Linear is y = xW + b.
type Linear struct {
	W, B *Param
	x    *tensor.Matrix // saved input

	// steady-state scratch, reused when shapes repeat (module outputs are
	// dead by the time the same module runs forward/backward again)
	y, dx, dw *tensor.Matrix
}

// NewLinear creates a Glorot-initialized Linear layer.
func NewLinear(name string, in, out int, rng *tensor.RNG) *Linear {
	l := &Linear{
		W: NewParam(name+".W", in, out),
		B: NewParam(name+".b", 1, out),
	}
	l.W.Value.XavierInit(rng, in, out)
	return l
}

// Params returns the layer's trainable parameters.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }

// Forward computes xW + b and saves x for backward.
func (l *Linear) Forward(x *tensor.Matrix) *tensor.Matrix {
	l.x = x
	l.y = ensure(l.y, x.Rows, l.W.Value.Cols)
	y := l.y
	tensor.MatMulInto(y, x, l.W.Value)
	brow := l.B.Value.Row(0)
	for i := 0; i < y.Rows; i++ {
		tensor.Axpy(y.Row(i), brow, 1) // 1·b is b, so this is y += b
	}
	return y
}

// Backward accumulates dW and db like BackwardParams and returns
// dx = dy·Wᵀ, the gradient with respect to the saved input.
func (l *Linear) Backward(dy *tensor.Matrix) *tensor.Matrix {
	l.BackwardParams(dy)
	l.dx = ensure(l.dx, dy.Rows, l.W.Value.Rows)
	tensor.MatMulTInto(l.dx, dy, l.W.Value)
	return l.dx
}

// BackwardParams accumulates dW and db and stops there: the backward of a
// layer whose input needs no gradient (the model's first), which so never
// computes, nor holds scratch for, its rows × in input gradient.
func (l *Linear) BackwardParams(dy *tensor.Matrix) {
	if l.x == nil {
		panic("nn: Linear backward before Forward")
	}
	// dW is computed into scratch then accumulated, keeping the float
	// addition order of the two-step TMatMul + AddInPlace formulation.
	l.dw = ensure(l.dw, l.x.Cols, dy.Cols)
	tensor.TMatMulInto(l.dw, l.x, dy)
	l.W.Grad.AddInPlace(l.dw)
	brow := l.B.Grad.Row(0)
	for i := 0; i < dy.Rows; i++ {
		tensor.Axpy(brow, dy.Row(i), 1)
	}
}

// ensure returns m if it already has the wanted shape, m's storage in that
// shape if it holds enough elements (a module that alternates two shapes,
// as the output layer's Linear does between training and evaluation rows,
// allocates each at most once), else a fresh matrix. Callers fully
// overwrite the result, so stale contents are fine.
func ensure(m *tensor.Matrix, rows, cols int) *tensor.Matrix {
	switch {
	case m == nil:
		return tensor.New(rows, cols)
	case m.Rows == rows && m.Cols == cols:
		return m
	case cap(m.Data) >= rows*cols:
		return &tensor.Matrix{Rows: rows, Cols: cols, Data: m.Data[:rows*cols]}
	}
	return tensor.New(rows, cols)
}

// laneMask is all ones when keep is set and zero when it is not. Whether an
// activation is positive, or survives dropout, is a coin flip per element,
// so ReLU and Dropout select with this mask and an AND on the float's bits
// rather than a branch the predictor loses half the time. x&ones is x, NaN
// payload included, and x&0 is +0: what the branches they replace assigned.
func laneMask(keep bool) uint32 {
	var m uint32
	if keep {
		m = 1
	}
	return -m
}

// ReLU activation with saved mask.
type ReLU struct {
	mask     []uint32 // laneMask(x > 0) per element
	out, dxm *tensor.Matrix
}

// Forward returns max(x, 0), saving the active mask; NaN and −0 map to +0.
func (r *ReLU) Forward(x *tensor.Matrix) *tensor.Matrix {
	r.out = ensure(r.out, x.Rows, x.Cols)
	if cap(r.mask) < len(x.Data) {
		r.mask = make([]uint32, len(x.Data))
	}
	r.mask = r.mask[:len(x.Data)]
	reluForward(r.out.Data, r.mask, x.Data)
	return r.out
}

// Backward gates dy by the saved mask.
func (r *ReLU) Backward(dy *tensor.Matrix) *tensor.Matrix {
	if len(r.mask) != len(dy.Data) {
		panic("nn: ReLU.Backward shape mismatch")
	}
	r.dxm = ensure(r.dxm, dy.Rows, dy.Cols)
	reluBackward(r.dxm.Data, dy.Data, r.mask)
	return r.dxm
}

// LayerNorm normalizes each row to zero mean/unit variance then applies a
// learned affine transform (the Norm Function of the paper's training
// configuration, Appendix B).
//
// A row's mean and variance are float64 sums taken one element at a time in
// column order, and its Σ dy·γ and Σ (dy·γ)·x̂ in Backward float32 sums taken
// the same way: those chains are the API, as the per-element operations are
// (normalizeGo, paramGradsGo, inputGradGo). Forward runs four rows' mean and
// variance chains side by side (meanVar4); the per-element passes are AVX2
// kernels where cpu.Vector says so.
type LayerNorm struct {
	Gamma, Beta *Param
	eps         float32
	xhat        *tensor.Matrix
	invStd      []float32
	out, dxm    *tensor.Matrix
}

// NewLayerNorm creates a LayerNorm over dim features.
func NewLayerNorm(name string, dim int) *LayerNorm {
	ln := &LayerNorm{
		Gamma: NewParam(name+".gamma", 1, dim),
		Beta:  NewParam(name+".beta", 1, dim),
		eps:   1e-5,
	}
	ln.Gamma.Value.Fill(1)
	return ln
}

// Params returns the layer's trainable parameters.
func (ln *LayerNorm) Params() []*Param { return []*Param{ln.Gamma, ln.Beta} }

// Forward normalizes rows and applies γ·x̂ + β.
func (ln *LayerNorm) Forward(x *tensor.Matrix) *tensor.Matrix {
	d := x.Cols
	ln.out = ensure(ln.out, x.Rows, d)
	ln.xhat = ensure(ln.xhat, x.Rows, d)
	if cap(ln.invStd) < x.Rows {
		ln.invStd = make([]float32, x.Rows)
	}
	ln.invStd = ln.invStd[:x.Rows]
	g := ln.Gamma.Value.Row(0)
	b := ln.Beta.Value.Row(0)
	var mean, vr [4]float64
	for lo := 0; lo < x.Rows; lo += 4 {
		k := min(4, x.Rows-lo)
		if k == 4 {
			mean, vr = meanVar4(x.Data[lo*d:(lo+4)*d], d)
		} else {
			for r := range k {
				mean[r], vr[r] = meanVar(x.Row(lo + r))
			}
		}
		for r := range k {
			i := lo + r
			inv := float32(1 / math.Sqrt(vr[r]+float64(ln.eps)))
			ln.invStd[i] = inv
			normalize(ln.xhat.Row(i), ln.out.Row(i), x.Row(i), g, b, float32(mean[r]), inv)
		}
	}
	return ln.out
}

// meanVar returns row's mean and variance, each a float64 sum in column
// order divided by the width.
func meanVar(row []float32) (mean, vr float64) {
	for _, v := range row {
		mean += float64(v)
	}
	mean /= float64(len(row))
	for _, v := range row {
		dv := float64(v) - mean
		vr += dv * dv
	}
	return mean, vr / float64(len(row))
}

// meanVar4 is meanVar of each of the four d-wide rows of x, with the four
// rows' chains interleaved: every row's sums are the ones meanVar takes.
func meanVar4(x []float32, d int) (mean, vr [4]float64) {
	r0, r1, r2, r3 := x[:d], x[d:2*d], x[2*d:3*d], x[3*d:4*d]
	r1, r2, r3 = r1[:d], r2[:d], r3[:d] // lengths the prover can see
	var s0, s1, s2, s3 float64
	for j, v := range r0 {
		s0 += float64(v)
		s1 += float64(r1[j])
		s2 += float64(r2[j])
		s3 += float64(r3[j])
	}
	n := float64(d)
	m0, m1, m2, m3 := s0/n, s1/n, s2/n, s3/n
	var q0, q1, q2, q3 float64
	for j, v := range r0 {
		e0 := float64(v) - m0
		e1 := float64(r1[j]) - m1
		e2 := float64(r2[j]) - m2
		e3 := float64(r3[j]) - m3
		q0 += e0 * e0
		q1 += e1 * e1
		q2 += e2 * e2
		q3 += e3 * e3
	}
	return [4]float64{m0, m1, m2, m3}, [4]float64{q0 / n, q1 / n, q2 / n, q3 / n}
}

// Backward returns dx and accumulates dγ, dβ.
func (ln *LayerNorm) Backward(dy *tensor.Matrix) *tensor.Matrix {
	if ln.xhat == nil {
		panic("nn: LayerNorm.Backward before Forward")
	}
	if dy.Rows != ln.xhat.Rows || dy.Cols != ln.xhat.Cols {
		panic("nn: LayerNorm.Backward shape mismatch")
	}
	d := dy.Cols
	ln.dxm = ensure(ln.dxm, dy.Rows, d)
	g := ln.Gamma.Value.Row(0)
	gg := ln.Gamma.Grad.Row(0)
	gb := ln.Beta.Grad.Row(0)
	invD := 1 / float32(d)
	// Row by row, so that each column of dγ and dβ adds its rows in
	// ascending order.
	for i := 0; i < dy.Rows; i++ {
		dyr, xh := dy.Row(i), ln.xhat.Row(i)
		s1, s2 := gradSums(dyr, xh, g)
		paramGrads(gg, gb, dyr, xh)
		inputGrad(ln.dxm.Row(i), dyr, g, xh, ln.invStd[i], invD, invD*s1, s2)
	}
	return ln.dxm
}

// gradSums returns Σ dy·γ and Σ (dy·γ)·x̂ over one row, each a float32 sum
// in column order.
func gradSums(dy, xh, g []float32) (s1, s2 float32) {
	xh, g = xh[:len(dy)], g[:len(dy)]
	for j, v := range dy {
		dxh := v * g[j]
		s1 += dxh
		s2 += dxh * xh[j]
	}
	return s1, s2
}

// Dropout zeroes activations with probability p during training, scaling
// survivors by 1/(1−p) (inverted dropout).
type Dropout struct {
	P        float32
	mask     []float32
	out, dxm *tensor.Matrix
}

// Forward applies dropout using rng; pass train=false for evaluation
// (identity).
func (dp *Dropout) Forward(x *tensor.Matrix, rng *tensor.RNG, train bool) *tensor.Matrix {
	if !train || dp.P <= 0 {
		dp.mask = nil
		return x
	}
	keep := 1 - dp.P
	scale := 1 / keep
	dp.out = ensure(dp.out, x.Rows, x.Cols)
	if cap(dp.mask) < len(x.Data) {
		dp.mask = make([]float32, len(x.Data))
	}
	dp.mask = dp.mask[:len(x.Data)]
	out, mask := dp.out.Data[:len(x.Data)], dp.mask
	// One draw per element, in order, a buffer of them at a time: the
	// generator runs from registers while it fills one.
	var draws [256]uint32
	for lo := 0; lo < len(out); lo += len(draws) {
		xs := x.Data[lo:min(lo+len(draws), len(out))]
		d := draws[:len(xs)]
		rng.FillUint24(d)
		dropoutForward(out[lo:lo+len(xs)], mask[lo:lo+len(xs)], xs, d, keep, scale)
	}
	return dp.out
}

// Backward gates dy by the dropout mask.
func (dp *Dropout) Backward(dy *tensor.Matrix) *tensor.Matrix {
	if dp.mask == nil {
		return dy
	}
	if len(dp.mask) != len(dy.Data) {
		panic("nn: Dropout.Backward shape mismatch")
	}
	dp.dxm = ensure(dp.dxm, dy.Rows, dy.Cols)
	dropoutBackward(dp.dxm.Data, dy.Data, dp.mask)
	return dp.dxm
}

// Adam is the optimizer used throughout the paper's experiments
// (Appendix B: Adam, lr 0.01).
type Adam struct {
	LR, Beta1, Beta2, Eps float32
	step                  int
}

// NewAdam returns Adam with the paper's defaults.
func NewAdam(lr float32) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one update to all params from their accumulated gradients.
func (a *Adam) Step(params []*Param) {
	a.step++
	b1c := 1 - float32(math.Pow(float64(a.Beta1), float64(a.step)))
	b2c := 1 - float32(math.Pow(float64(a.Beta2), float64(a.step)))
	for _, p := range params {
		for i, g := range p.Grad.Data {
			p.m.Data[i] = a.Beta1*p.m.Data[i] + (1-a.Beta1)*g
			p.v.Data[i] = a.Beta2*p.v.Data[i] + (1-a.Beta2)*g*g
			mhat := p.m.Data[i] / b1c
			vhat := p.v.Data[i] / b2c
			p.Value.Data[i] -= a.LR * mhat / (float32(math.Sqrt(float64(vhat))) + a.Eps)
		}
	}
}

// String describes the optimizer configuration.
func (a *Adam) String() string { return fmt.Sprintf("Adam(lr=%g)", a.LR) }

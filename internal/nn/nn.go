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
		row := y.Row(i)
		for j := range row {
			row[j] += brow[j]
		}
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
		row := dy.Row(i)
		for j := range row {
			brow[j] += row[j]
		}
	}
}

// ensure returns m if it already has the wanted shape, else a fresh
// matrix. Callers fully overwrite the result, so stale contents are fine.
func ensure(m *tensor.Matrix, rows, cols int) *tensor.Matrix {
	if m != nil && m.Rows == rows && m.Cols == cols {
		return m
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
	out, mask := r.out.Data[:len(x.Data)], r.mask[:len(x.Data)]
	for i, v := range x.Data {
		m := laneMask(v > 0)
		out[i] = math.Float32frombits(math.Float32bits(v) & m)
		mask[i] = m
	}
	return r.out
}

// Backward gates dy by the saved mask.
func (r *ReLU) Backward(dy *tensor.Matrix) *tensor.Matrix {
	if len(r.mask) != len(dy.Data) {
		panic("nn: ReLU.Backward shape mismatch")
	}
	r.dxm = ensure(r.dxm, dy.Rows, dy.Cols)
	out, mask := r.dxm.Data[:len(dy.Data)], r.mask[:len(dy.Data)]
	for i, v := range dy.Data {
		out[i] = math.Float32frombits(math.Float32bits(v) & mask[i])
	}
	return r.dxm
}

// LayerNorm normalizes each row to zero mean/unit variance then applies a
// learned affine transform (the Norm Function of the paper's training
// configuration, Appendix B).
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
	out := ln.out
	ln.xhat = ensure(ln.xhat, x.Rows, d)
	if cap(ln.invStd) < x.Rows {
		ln.invStd = make([]float32, x.Rows)
	}
	ln.invStd = ln.invStd[:x.Rows]
	g := ln.Gamma.Value.Row(0)
	b := ln.Beta.Value.Row(0)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		var mean float64
		for _, v := range row {
			mean += float64(v)
		}
		mean /= float64(d)
		var vr float64
		for _, v := range row {
			dv := float64(v) - mean
			vr += dv * dv
		}
		vr /= float64(d)
		inv := float32(1 / math.Sqrt(vr+float64(ln.eps)))
		ln.invStd[i] = inv
		xh := ln.xhat.Row(i)
		orow := out.Row(i)
		for j, v := range row {
			xh[j] = (v - float32(mean)) * inv
			orow[j] = g[j]*xh[j] + b[j]
		}
	}
	return out
}

// Backward returns dx and accumulates dγ, dβ.
func (ln *LayerNorm) Backward(dy *tensor.Matrix) *tensor.Matrix {
	if ln.xhat == nil {
		panic("nn: LayerNorm.Backward before Forward")
	}
	d := dy.Cols
	ln.dxm = ensure(ln.dxm, dy.Rows, d)
	out := ln.dxm
	g := ln.Gamma.Value.Row(0)
	gg := ln.Gamma.Grad.Row(0)
	gb := ln.Beta.Grad.Row(0)
	invD := 1 / float32(d)
	for i := 0; i < dy.Rows; i++ {
		dyr := dy.Row(i)
		xh := ln.xhat.Row(i)
		// dγ += dy ⊙ x̂ ; dβ += dy
		var sumDxhat, sumDxhatXhat float32
		for j, v := range dyr {
			gg[j] += v * xh[j]
			gb[j] += v
			dxh := v * g[j]
			sumDxhat += dxh
			sumDxhatXhat += dxh * xh[j]
		}
		inv := ln.invStd[i]
		orow := out.Row(i)
		for j, v := range dyr {
			dxh := v * g[j]
			orow[j] = inv * (dxh - invD*sumDxhat - xh[j]*invD*sumDxhatXhat)
		}
	}
	return out
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
	out, mask, scaleBits := dp.out.Data[:len(x.Data)], dp.mask[:len(x.Data)], math.Float32bits(scale)
	// One draw per element, in order, a buffer of them at a time: the
	// generator runs from registers while it fills one.
	var draws [256]uint32
	for lo := 0; lo < len(out); lo += len(draws) {
		xs := x.Data[lo:min(lo+len(draws), len(out))]
		d, o, mk := draws[:len(xs)], out[lo:lo+len(xs)], mask[lo:lo+len(xs)]
		rng.FillUint24(d)
		for i, v := range xs {
			m := laneMask(float32(d[i])/(1<<24) < keep) // rng.Float32() < keep
			o[i] = math.Float32frombits(math.Float32bits(v*scale) & m)
			mk[i] = math.Float32frombits(scaleBits & m)
		}
	}
	return dp.out
}

// Backward gates dy by the dropout mask.
func (dp *Dropout) Backward(dy *tensor.Matrix) *tensor.Matrix {
	if dp.mask == nil {
		return dy
	}
	dp.dxm = ensure(dp.dxm, dy.Rows, dy.Cols)
	out := dp.dxm
	for i, v := range dy.Data {
		out.Data[i] = v * dp.mask[i]
	}
	return out
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

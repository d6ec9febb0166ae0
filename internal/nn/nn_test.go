package nn

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// numericalGrad estimates d(loss)/d(x[i]) by central differences.
func numericalGrad(x *tensor.Matrix, loss func() float64, i int, eps float32) float64 {
	orig := x.Data[i]
	x.Data[i] = orig + eps
	up := loss()
	x.Data[i] = orig - eps
	down := loss()
	x.Data[i] = orig
	return (up - down) / (2 * float64(eps))
}

// scalarize reduces a matrix to a scalar with fixed random weights, giving
// a differentiable "loss" whose gradient is those weights.
type scalarizer struct{ w *tensor.Matrix }

func newScalarizer(rng *tensor.RNG, rows, cols int) *scalarizer {
	w := tensor.New(rows, cols)
	w.FillUniform(rng, -1, 1)
	return &scalarizer{w}
}

func (s *scalarizer) loss(y *tensor.Matrix) float64 {
	var l float64
	for i := range y.Data {
		l += float64(y.Data[i]) * float64(s.w.Data[i])
	}
	return l
}

func (s *scalarizer) grad() *tensor.Matrix { return s.w.Clone() }

func TestLinearForward(t *testing.T) {
	rng := tensor.NewRNG(1)
	l := NewLinear("t", 3, 2, rng)
	l.W.Value.CopyFrom(tensor.FromSlice(3, 2, []float32{1, 0, 0, 1, 1, 1}))
	l.B.Value.CopyFrom(tensor.FromSlice(1, 2, []float32{10, 20}))
	y := l.Forward(tensor.FromSlice(1, 3, []float32{1, 2, 3}))
	if y.At(0, 0) != 14 || y.At(0, 1) != 25 {
		t.Fatalf("linear forward got %v %v", y.At(0, 0), y.At(0, 1))
	}
}

func TestLinearGradCheck(t *testing.T) {
	rng := tensor.NewRNG(2)
	l := NewLinear("t", 5, 4, rng)
	x := tensor.New(6, 5)
	x.FillUniform(rng, -1, 1)
	s := newScalarizer(rng, 6, 4)
	forward := func() float64 { return s.loss(l.Forward(x)) }

	l.Forward(x)
	l.W.ZeroGrad()
	l.B.ZeroGrad()
	dx := l.Backward(s.grad())

	for _, i := range []int{0, 7, 19} {
		want := numericalGrad(l.W.Value, forward, i, 1e-3)
		if got := float64(l.W.Grad.Data[i]); math.Abs(got-want) > 1e-2*(1+math.Abs(want)) {
			t.Fatalf("dW[%d] analytic %v vs numeric %v", i, got, want)
		}
	}
	for _, i := range []int{0, 3} {
		want := numericalGrad(l.B.Value, forward, i, 1e-3)
		if got := float64(l.B.Grad.Data[i]); math.Abs(got-want) > 1e-2*(1+math.Abs(want)) {
			t.Fatalf("db[%d] analytic %v vs numeric %v", i, got, want)
		}
	}
	for _, i := range []int{0, 13, 29} {
		want := numericalGrad(x, forward, i, 1e-3)
		if got := float64(dx.Data[i]); math.Abs(got-want) > 1e-2*(1+math.Abs(want)) {
			t.Fatalf("dx[%d] analytic %v vs numeric %v", i, got, want)
		}
	}
}

// TestLinearBackwardParamsMatchesBackward: the parameter-only backward
// leaves W.Grad and B.Grad exactly as Backward does — float32 bits, across two
// accumulating calls, on ordinary inputs and on inputs salted with zeros,
// infinities, denormals and NaNs (a NaN equals any NaN: which payload survives
// an addition of two is the register allocator's choice) — and never
// materialises the input gradient.
func TestLinearBackwardParamsMatchesBackward(t *testing.T) {
	specials := []float32{
		0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, math.MaxFloat32, 1 + 1.0/4096,
	}
	rng := tensor.NewRNG(11)
	for trial := 0; trial < 12; trial++ {
		rows, in, out := 1+rng.Intn(40), 1+rng.Intn(20), 1+rng.Intn(20)
		if trial == 0 {
			rows, in = 300, 260 // past the kernels' goroutine gate
		}
		full, params := NewLinear("t", in, out, tensor.NewRNG(5)), NewLinear("t", in, out, tensor.NewRNG(5))
		for call := 0; call < 2; call++ {
			x, dy := tensor.New(rows, in), tensor.New(rows, out)
			x.FillUniform(rng, -2, 2)
			dy.FillUniform(rng, -2, 2)
			if trial%2 == 1 {
				for _, m := range []*tensor.Matrix{x, dy} {
					for i := range m.Data {
						if rng.Intn(5) == 0 {
							m.Data[i] = specials[rng.Intn(len(specials))]
						}
					}
				}
			}
			full.Forward(x)
			params.Forward(x)
			if dx := full.Backward(dy); dx.Rows != rows || dx.Cols != in {
				t.Fatalf("Backward returned a %dx%d input gradient for a %dx%d input", dx.Rows, dx.Cols, rows, in)
			}
			params.BackwardParams(dy)
		}
		if params.dx != nil {
			t.Fatalf("trial %d: BackwardParams left a %dx%d input gradient behind", trial, params.dx.Rows, params.dx.Cols)
		}
		for i, p := range params.Params() {
			want := full.Params()[i].Grad.Data
			for j, got := range p.Grad.Data {
				if math.Float32bits(got) != math.Float32bits(want[j]) && !(got != got && want[j] != want[j]) {
					t.Fatalf("trial %d (%dx%d→%d): %s grad[%d] = %v (%#08x), Backward's %v (%#08x)", trial, rows, in, out,
						p.Name, j, got, math.Float32bits(got), want[j], math.Float32bits(want[j]))
				}
			}
		}
	}
}

func TestReLU(t *testing.T) {
	r := &ReLU{}
	y := r.Forward(tensor.FromSlice(1, 4, []float32{-1, 0, 2, -3}))
	want := []float32{0, 0, 2, 0}
	for i, w := range want {
		if y.Data[i] != w {
			t.Fatalf("relu[%d] = %v", i, y.Data[i])
		}
	}
	dx := r.Backward(tensor.FromSlice(1, 4, []float32{5, 5, 5, 5}))
	wantG := []float32{0, 0, 5, 0}
	for i, w := range wantG {
		if dx.Data[i] != w {
			t.Fatalf("relu grad[%d] = %v", i, dx.Data[i])
		}
	}
}

func TestLayerNormForwardStats(t *testing.T) {
	ln := NewLayerNorm("t", 8)
	rng := tensor.NewRNG(3)
	x := tensor.New(5, 8)
	x.FillUniform(rng, -4, 4)
	y := ln.Forward(x)
	// With γ=1, β=0 every row has ~zero mean and ~unit variance.
	for i := 0; i < 5; i++ {
		var mean, vr float64
		for _, v := range y.Row(i) {
			mean += float64(v)
		}
		mean /= 8
		for _, v := range y.Row(i) {
			vr += (float64(v) - mean) * (float64(v) - mean)
		}
		vr /= 8
		if math.Abs(mean) > 1e-4 || math.Abs(vr-1) > 1e-2 {
			t.Fatalf("row %d: mean %v var %v", i, mean, vr)
		}
	}
}

func TestLayerNormGradCheck(t *testing.T) {
	rng := tensor.NewRNG(4)
	ln := NewLayerNorm("t", 6)
	ln.Gamma.Value.FillUniform(rng, 0.5, 1.5)
	ln.Beta.Value.FillUniform(rng, -0.5, 0.5)
	x := tensor.New(4, 6)
	x.FillUniform(rng, -2, 2)
	s := newScalarizer(rng, 4, 6)
	forward := func() float64 { return s.loss(ln.Forward(x)) }

	ln.Forward(x)
	ln.Gamma.ZeroGrad()
	ln.Beta.ZeroGrad()
	dx := ln.Backward(s.grad())

	for _, i := range []int{0, 9, 23} {
		want := numericalGrad(x, forward, i, 1e-3)
		if got := float64(dx.Data[i]); math.Abs(got-want) > 2e-2*(1+math.Abs(want)) {
			t.Fatalf("LN dx[%d] analytic %v vs numeric %v", i, got, want)
		}
	}
	for _, i := range []int{0, 5} {
		want := numericalGrad(ln.Gamma.Value, forward, i, 1e-3)
		if got := float64(ln.Gamma.Grad.Data[i]); math.Abs(got-want) > 2e-2*(1+math.Abs(want)) {
			t.Fatalf("LN dγ[%d] analytic %v vs numeric %v", i, got, want)
		}
		want = numericalGrad(ln.Beta.Value, forward, i, 1e-3)
		if got := float64(ln.Beta.Grad.Data[i]); math.Abs(got-want) > 2e-2*(1+math.Abs(want)) {
			t.Fatalf("LN dβ[%d] analytic %v vs numeric %v", i, got, want)
		}
	}
}

func TestDropoutTrainEval(t *testing.T) {
	rng := tensor.NewRNG(5)
	dp := &Dropout{P: 0.5}
	x := tensor.New(50, 50)
	x.Fill(1)
	yEval := dp.Forward(x, rng, false)
	if yEval != x {
		t.Fatal("eval dropout must be identity")
	}
	yTrain := dp.Forward(x, rng, true)
	zeros, twos := 0, 0
	for _, v := range yTrain.Data {
		switch v {
		case 0:
			zeros++
		case 2:
			twos++
		default:
			t.Fatalf("inverted dropout should give 0 or 2, got %v", v)
		}
	}
	frac := float64(zeros) / float64(len(yTrain.Data))
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("dropout rate %v, want ~0.5", frac)
	}
	// Backward gates by the same mask.
	dy := tensor.New(50, 50)
	dy.Fill(1)
	dx := dp.Backward(dy)
	for i, v := range yTrain.Data {
		if (v == 0) != (dx.Data[i] == 0) {
			t.Fatal("dropout backward mask mismatch")
		}
	}
}

func TestSoftmaxCrossEntropyGradCheck(t *testing.T) {
	rng := tensor.NewRNG(6)
	logits := tensor.New(5, 4)
	logits.FillUniform(rng, -2, 2)
	labels := []int{0, 3, 2, 1, 0}
	mask := []bool{true, true, false, true, true}
	forward := func() float64 {
		l, _ := SoftmaxCrossEntropy(logits, labels, mask)
		return l
	}
	_, grad := SoftmaxCrossEntropy(logits, labels, mask)
	for _, i := range []int{0, 5, 13, 19} {
		want := numericalGrad(logits, forward, i, 1e-3)
		if got := float64(grad.Data[i]); math.Abs(got-want) > 1e-3*(1+math.Abs(want)) {
			t.Fatalf("CE dlogits[%d] analytic %v vs numeric %v", i, got, want)
		}
	}
	// Masked rows get zero gradient.
	for j := 0; j < 4; j++ {
		if grad.At(2, j) != 0 {
			t.Fatal("masked row must have zero grad")
		}
	}
}

func TestSigmoidBCEGradCheck(t *testing.T) {
	rng := tensor.NewRNG(7)
	logits := tensor.New(4, 6)
	logits.FillUniform(rng, -3, 3)
	targets := tensor.New(4, 6)
	for i := range targets.Data {
		if rng.Float64() < 0.3 {
			targets.Data[i] = 1
		}
	}
	mask := []bool{true, false, true, true}
	forward := func() float64 {
		l, _ := SigmoidBCE(logits, targets, mask)
		return l
	}
	_, grad := SigmoidBCE(logits, targets, mask)
	for _, i := range []int{0, 7, 15, 23} {
		want := numericalGrad(logits, forward, i, 1e-3)
		if got := float64(grad.Data[i]); math.Abs(got-want) > 1e-3*(1+math.Abs(want)) {
			t.Fatalf("BCE dlogits[%d] analytic %v vs numeric %v", i, got, want)
		}
	}
}

func TestScaledLossMatchesShardedSum(t *testing.T) {
	// Core invariant for distributed loss: splitting rows across devices
	// and summing the scaled losses equals the single-device mean loss.
	rng := tensor.NewRNG(8)
	logits := tensor.New(10, 5)
	logits.FillUniform(rng, -1, 1)
	labels := make([]int, 10)
	mask := make([]bool, 10)
	for i := range labels {
		labels[i] = rng.Intn(5)
		mask[i] = rng.Float64() < 0.7
	}
	full, fullGrad := SoftmaxCrossEntropy(logits, labels, mask)
	denom := 0
	for _, b := range mask {
		if b {
			denom++
		}
	}
	var sum float64
	shardGrad := tensor.New(10, 5)
	for lo := 0; lo < 10; lo += 5 {
		sub := logits.RowSlice(lo, lo+5)
		l, g := SoftmaxCrossEntropyScaled(sub, labels[lo:lo+5], mask[lo:lo+5], float64(denom))
		sum += l
		for i := 0; i < 5; i++ {
			copy(shardGrad.Row(lo+i), g.Row(i))
		}
	}
	if math.Abs(sum-full) > 1e-9 {
		t.Fatalf("sharded loss %v != full %v", sum, full)
	}
	if !tensor.Equal(shardGrad, fullGrad, 1e-7) {
		t.Fatal("sharded grads != full grads")
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice(3, 2, []float32{1, 0, 0, 1, 1, 0})
	labels := []int{0, 1, 1}
	acc := Accuracy(logits, labels, []bool{true, true, true})
	if math.Abs(acc-2.0/3.0) > 1e-9 {
		t.Fatalf("accuracy %v", acc)
	}
	if Accuracy(logits, labels, []bool{false, false, false}) != 0 {
		t.Fatal("empty mask accuracy should be 0")
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize ||w - target||² — Adam should get close quickly.
	p := NewParam("w", 1, 4)
	target := []float32{1, -2, 3, 0.5}
	opt := NewAdam(0.05)
	for step := 0; step < 500; step++ {
		for i := range p.Grad.Data {
			p.Grad.Data[i] = 2 * (p.Value.Data[i] - target[i])
		}
		opt.Step([]*Param{p})
	}
	for i, w := range target {
		if math.Abs(float64(p.Value.Data[i]-w)) > 0.01 {
			t.Fatalf("Adam w[%d] = %v, want %v", i, p.Value.Data[i], w)
		}
	}
}

func TestParamCount(t *testing.T) {
	rng := tensor.NewRNG(9)
	l := NewLinear("t", 10, 5, rng)
	n := 0
	for _, p := range l.Params() {
		n += p.NumElements()
	}
	if n != 55 {
		t.Fatalf("a 10×5 Linear has %d parameters, want 55", n)
	}
}

func TestSigmoidBCEWeightedGradCheck(t *testing.T) {
	rng := tensor.NewRNG(11)
	logits := tensor.New(3, 5)
	logits.FillUniform(rng, -2, 2)
	targets := tensor.New(3, 5)
	for i := range targets.Data {
		if rng.Float64() < 0.2 {
			targets.Data[i] = 1
		}
	}
	mask := []bool{true, true, false}
	const pw = 7.5
	forward := func() float64 {
		l, _ := SigmoidBCEWeighted(logits, targets, mask, 2, pw)
		return l
	}
	_, grad := SigmoidBCEWeighted(logits, targets, mask, 2, pw)
	for _, i := range []int{0, 4, 9, 13} {
		want := numericalGrad(logits, forward, i, 1e-3)
		if got := float64(grad.Data[i]); math.Abs(got-want) > 1e-3*(1+math.Abs(want)) {
			t.Fatalf("weighted BCE dlogits[%d] analytic %v vs numeric %v", i, got, want)
		}
	}
	// posWeight=1 must reduce to the unweighted loss.
	a, _ := SigmoidBCEWeighted(logits, targets, mask, 2, 1)
	b, _ := SigmoidBCEScaled(logits, targets, mask, 2)
	if math.Abs(a-b) > 1e-12 {
		t.Fatalf("posWeight=1 should equal unweighted: %v vs %v", a, b)
	}
}

package nn

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/kerneltest"
	"repro/internal/tensor"
)

// layerNormForwardRef and layerNormBackwardRef are LayerNorm.Forward and
// LayerNorm.Backward as they stood before the per-element passes became
// kernels and the forward's row sums ran four rows at a time: one row after
// another, each statistic one sequential chain. They are frozen here as the oracle —
// every fixed-seed loss and golden is a function of these operations in this
// order.

func layerNormForwardRef(x *tensor.Matrix, g, b []float32, eps float32) (out, xhat *tensor.Matrix, invStd []float32) {
	d := x.Cols
	out, xhat, invStd = tensor.New(x.Rows, d), tensor.New(x.Rows, d), make([]float32, x.Rows)
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
		inv := float32(1 / math.Sqrt(vr+float64(eps)))
		invStd[i] = inv
		xh := xhat.Row(i)
		orow := out.Row(i)
		for j, v := range row {
			xh[j] = (v - float32(mean)) * inv
			orow[j] = g[j]*xh[j] + b[j]
		}
	}
	return out, xhat, invStd
}

func layerNormBackwardRef(dy, xhat *tensor.Matrix, invStd, g, gg, gb []float32) *tensor.Matrix {
	d := dy.Cols
	out := tensor.New(dy.Rows, d)
	invD := 1 / float32(d)
	for i := 0; i < dy.Rows; i++ {
		dyr := dy.Row(i)
		xh := xhat.Row(i)
		var sumDxhat, sumDxhatXhat float32
		for j, v := range dyr {
			gg[j] += v * xh[j]
			gb[j] += v
			dxh := v * g[j]
			sumDxhat += dxh
			sumDxhatXhat += dxh * xh[j]
		}
		inv := invStd[i]
		orow := out.Row(i)
		for j, v := range dyr {
			dxh := v * g[j]
			orow[j] = inv * (dxh - invD*sumDxhat - xh[j]*invD*sumDxhatXhat)
		}
	}
	return out
}

// mustSame fails t unless got and want are kerneltest.Same element for
// element: equal bits, or both NaN (which NaN an operation on two of them
// returns is the compiler's choice of operand order).
func mustSame(t testing.TB, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, reference %d", what, len(got), len(want))
	}
	for i := range want {
		if !kerneltest.Same(got[i], want[i]) {
			t.Fatalf("%s[%d] = %v (%#08x), reference loop %v (%#08x)", what, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// vectorModes are the values of cpu.AVX2 a test runs under: the host's and,
// where that is on, off.
func vectorModes() []bool {
	if cpu.AVX2 {
		return []bool{true, false}
	}
	return []bool{false}
}

// checkLayerNormMatchesReference runs Forward on x and Backward on dy1 then
// dy2 with the assembly and without, and holds out, x̂, 1/σ, both dx and the
// dγ and dβ the two calls accumulate to the frozen loops. The LayerNorm is
// len(g) wide, which may exceed x's width: its first x.Cols features apply.
func checkLayerNormMatchesReference(t testing.TB, what string, x, dy1, dy2 *tensor.Matrix, g, b []float32) {
	t.Helper()
	wantOut, wantXhat, wantInv := layerNormForwardRef(x, g, b, 1e-5)
	wantGG, wantGB := make([]float32, len(g)), make([]float32, len(g))
	wantDx1 := layerNormBackwardRef(dy1, wantXhat, wantInv, g, wantGG, wantGB)
	wantDx2 := layerNormBackwardRef(dy2, wantXhat, wantInv, g, wantGG, wantGB)
	defer func(have bool) { cpu.AVX2 = have }(cpu.AVX2)
	for _, vector := range vectorModes() {
		cpu.AVX2 = vector
		at := fmt.Sprintf("%s, AVX2 %v", what, vector)
		ln := NewLayerNorm("t", len(g))
		copy(ln.Gamma.Value.Data, g)
		copy(ln.Beta.Value.Data, b)
		mustSame(t, at+": out", ln.Forward(x).Data, wantOut.Data)
		mustSame(t, at+": x̂", ln.xhat.Data, wantXhat.Data)
		mustSame(t, at+": 1/σ", ln.invStd, wantInv)
		mustSame(t, at+": first dx", ln.Backward(dy1).Data, wantDx1.Data)
		mustSame(t, at+": second dx", ln.Backward(dy2).Data, wantDx2.Data)
		mustSame(t, at+": dγ", ln.Gamma.Grad.Data, wantGG)
		mustSame(t, at+": dβ", ln.Beta.Grad.Data, wantGB)
	}
}

// layerNormInput is a rows × d matrix of values in [lo, hi), with
// activationSpecials in every third element when specials is set.
func layerNormInput(rng *tensor.RNG, rows, d int, lo, hi float32, specials bool) *tensor.Matrix {
	m := tensor.New(rows, d)
	for i := range m.Data {
		if specials && i%3 == 0 {
			m.Data[i] = math.Float32frombits(activationSpecials[rng.Intn(len(activationSpecials))])
		} else {
			m.Data[i] = lo + rng.Float32()*(hi-lo)
		}
	}
	return m
}

// TestLayerNormMatchesReference sweeps 1–9 rows (every remainder of a block
// of four, and two blocks) over every width kerneltest sweeps, on ordinary
// rows — where a changed association or row order shows — and on rows with
// NaN, ±Inf, ±0 and denormals in x and dy.
func TestLayerNormMatchesReference(t *testing.T) {
	kerneltest.SkipIfPortableFuses(t)
	rng := tensor.NewRNG(31)
	for rows := 1; rows <= 9; rows++ {
		for _, d := range kerneltest.Widths() {
			g := layerNormInput(rng, 1, d, -2, 2, false).Data
			b := layerNormInput(rng, 1, d, -2, 2, false).Data
			for _, specials := range []bool{false, true} {
				x := layerNormInput(rng, rows, d, -3, 5, specials)
				dy1 := layerNormInput(rng, rows, d, -1, 1, specials)
				dy2 := layerNormInput(rng, rows, d, -1, 1, specials)
				what := fmt.Sprintf("%d×%d, specials %v", rows, d, specials)
				checkLayerNormMatchesReference(t, what, x, dy1, dy2, g, b)
			}
		}
	}
}

// TestLayerNormNarrowerThanGammaMatchesReference feeds a LayerNorm rows
// narrower than its γ, which it has always accepted by applying γ's first
// x.Cols features: every row still pairs with its own x̂ columns, in blocks of
// four rows and past them.
func TestLayerNormNarrowerThanGammaMatchesReference(t *testing.T) {
	kerneltest.SkipIfPortableFuses(t)
	rng := tensor.NewRNG(37)
	for rows := 1; rows <= 9; rows++ {
		for _, d := range []int{1, 7, 8, 9, 17} {
			g := layerNormInput(rng, 1, d+3, -2, 2, false).Data
			b := layerNormInput(rng, 1, d+3, -2, 2, false).Data
			x := layerNormInput(rng, rows, d, -3, 5, false)
			dy1 := layerNormInput(rng, rows, d, -1, 1, false)
			dy2 := layerNormInput(rng, rows, d, -1, 1, false)
			checkLayerNormMatchesReference(t, fmt.Sprintf("%d×%d under a %d-wide γ", rows, d, d+3), x, dy1, dy2, g, b)
		}
	}
}

// FuzzLayerNormMatchesReference reads x, dy, γ and β from raw bytes, so the
// fuzzer reaches bit patterns the table does not name; the second Backward
// takes x as its dy.
func FuzzLayerNormMatchesReference(f *testing.F) {
	f.Add(make([]byte, 4*(2*4+2)*9), uint8(3))
	seed := make([]byte, 4*(2*5+2)*17)
	for i := 0; i+4 <= len(seed); i += 4 {
		binary.LittleEndian.PutUint32(seed[i:], math.Float32bits(float32(i%37)/7-2))
	}
	f.Add(seed, uint8(4))
	f.Add(seed[:4*(2*1+2)*8], uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, r uint8) {
		kerneltest.SkipIfPortableFuses(t)
		rows := 1 + int(r%9)
		d := len(raw) / 4 / (2*rows + 2)
		if d == 0 || d > 602 {
			return
		}
		v := make([]float32, (2*rows+2)*d)
		for i := range v {
			v[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		x := tensor.FromSlice(rows, d, v[:rows*d])
		dy := tensor.FromSlice(rows, d, v[rows*d:2*rows*d])
		g, b := v[2*rows*d:(2*rows+1)*d], v[(2*rows+1)*d:]
		checkLayerNormMatchesReference(t, fmt.Sprintf("%d×%d", rows, d), x, dy, x, g, b)
	})
}

// mustPanicWith fails t unless call panics with a message containing want.
func mustPanicWith(t *testing.T, what, want string, call func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Errorf("%s did not panic", what)
		} else if !strings.Contains(fmt.Sprint(r), want) {
			t.Errorf("%s panicked with %q, want %q", what, r, want)
		}
	}()
	call()
}

func TestLayerNormBackwardShapeMismatchPanics(t *testing.T) {
	ln := NewLayerNorm("t", 8)
	ln.Forward(tensor.New(5, 8))
	for _, shape := range [][2]int{{5, 7}, {5, 9}, {4, 8}, {6, 8}, {8, 5}} {
		mustPanicWith(t, fmt.Sprintf("LayerNorm.Backward of a %d×%d dy after a 5×8 x", shape[0], shape[1]),
			"nn: LayerNorm.Backward shape mismatch", func() { ln.Backward(tensor.New(shape[0], shape[1])) })
	}
}

func TestDropoutBackwardShapeMismatchPanics(t *testing.T) {
	dp := &Dropout{P: 0.5}
	dp.Forward(tensor.New(5, 8), tensor.NewRNG(1), true)
	for _, shape := range [][2]int{{5, 7}, {5, 9}, {4, 8}, {6, 8}} {
		mustPanicWith(t, fmt.Sprintf("Dropout.Backward of a %d×%d dy after a 5×8 x", shape[0], shape[1]),
			"nn: Dropout.Backward shape mismatch", func() { dp.Backward(tensor.New(shape[0], shape[1])) })
	}
}

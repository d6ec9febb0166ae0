package nn

import (
	"fmt"
	"math"
	"testing"
	"unsafe"

	"repro/internal/cpu"
	"repro/internal/kerneltest"
	"repro/internal/tensor"
)

// The tests below hold the seven AVX2 kernels of LayerNorm, ReLU and Dropout
// to their Go loops as float32 bits through kerneltest.Differential: each
// entry point runs as the host would run it and with cpu.AVX2 cleared, on a
// sentinel-guarded dst, with every input read from the end of a page whose
// successor is inaccessible, so a kernel that reads past its slice faults.
// Outputs that come in pairs (x̂ and out, out and its mask, dγ and dβ) share
// one dst, the first output in its front half.

// u32 is f's memory as the uint32 lanes a mask or a draw is.
func u32(f []float32) []uint32 {
	return unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(f))), len(f))
}

// guarded is n elements at the end of a guarded page, every third a special
// and the rest of both signs; lo and hi bound the ordinary ones.
func guarded(t *testing.T, rng *tensor.RNG, n int, lo, hi float32) []float32 {
	v := kerneltest.AtPageEnd[float32](t, n)
	for i := range v {
		if i%3 == 0 {
			v[i] = math.Float32frombits(activationSpecials[rng.Intn(len(activationSpecials))])
		} else {
			v[i] = lo + rng.Float32()*(hi-lo)
		}
	}
	return v
}

// junk is an n-element dst whose every element a kernel must overwrite; a
// finite value, so that an element left as it was never passes for a NaN.
func junk(n int) []float32 {
	d := make([]float32, n)
	for i := range d {
		d[i] = -123.456
	}
	return d
}

func TestElementwiseKernelsMatchPortable(t *testing.T) {
	kerneltest.SkipIfPortableFuses(t)
	if !cpu.AVX2 {
		t.Log("no AVX2 on this host: every pass is its Go loop")
	}
	rng := tensor.NewRNG(29)
	for _, n := range kerneltest.Widths() {
		off := n % 10
		x, g, b := guarded(t, rng, n, -3, 3), guarded(t, rng, n, 0.5, 1.5), guarded(t, rng, n, -1, 1)
		dy, xh := guarded(t, rng, n, -2, 2), guarded(t, rng, n, -3, 3)
		mean, inv := rng.Float32()-0.5, 0.25+rng.Float32()
		kerneltest.Differential(t, fmt.Sprintf("normalize len %d", n), junk(2*n), off, func(d []float32) {
			normalize(d[:n], d[n:], x, g, b, mean, inv)
		}, x, g, b)

		acc := make([]float32, 2*n) // dγ ‖ dβ, accumulated onto
		for i := range acc {
			acc[i] = rng.Float32()*2 - 1
		}
		kerneltest.Differential(t, fmt.Sprintf("paramGrads len %d", n), acc, off, func(d []float32) {
			paramGrads(d[:n], d[n:], dy, xh)
		}, dy, xh)

		invD, a, s2 := 1/float32(n), rng.Float32()-0.5, rng.Float32()*4-2
		kerneltest.Differential(t, fmt.Sprintf("inputGrad len %d", n), junk(n), off, func(d []float32) {
			inputGrad(d, dy, g, xh, inv, invD, a, s2)
		}, dy, g, xh)

		kerneltest.Differential(t, fmt.Sprintf("reluForward len %d", n), junk(2*n), off, func(d []float32) {
			reluForward(d[:n], u32(d[n:]), x)
		}, x)

		mask := kerneltest.AtPageEnd[float32](t, n)
		for i := range mask {
			u32(mask)[i] = laneMask(rng.Intn(2) == 0)
		}
		kerneltest.Differential(t, fmt.Sprintf("reluBackward len %d", n), junk(n), off, func(d []float32) {
			reluBackward(d, dy, u32(mask))
		}, dy, mask)

		draws := kerneltest.AtPageEnd[float32](t, n)
		rng.FillUint24(u32(draws))
		u32(draws)[0], u32(draws)[n-1] = 0, 1<<24-1
		if n > 2 {
			u32(draws)[n/2] = 1 << 23 // exactly 0.5: kept only when keep > 0.5
		}
		for _, p := range []float32{0.5, 0.1, 0.9, 1} {
			keep := 1 - p
			scale := 1 / keep
			kerneltest.Differential(t, fmt.Sprintf("dropoutForward p %v len %d", p, n), junk(2*n), off, func(d []float32) {
				dropoutForward(d[:n], d[n:], x, u32(draws), keep, scale)
			}, x, draws)
			dmask := kerneltest.AtPageEnd[float32](t, n)
			for i := range dmask {
				if rng.Float32() < keep {
					dmask[i] = scale
				}
			}
			kerneltest.Differential(t, fmt.Sprintf("dropoutBackward p %v len %d", p, n), junk(n), off, func(d []float32) {
				dropoutBackward(d, dy, dmask)
			}, dy, dmask)
		}
	}
}

// TestElementwiseShortOperandPanics: every entry point cuts its operands to
// the length of the one it iterates before a kernel sees them, so a short
// operand is a Go panic, not a read past its end.
func TestElementwiseShortOperandPanics(t *testing.T) {
	const n = 40
	f := func() []float32 { return make([]float32, n) }
	short := make([]float32, n-1)
	calls := map[string]func(){
		"normalize":       func() { normalize(f(), f(), f(), short, f(), 0, 1) },
		"paramGrads":      func() { paramGrads(f(), f(), f(), short) },
		"inputGrad":       func() { inputGrad(f(), f(), f(), short, 1, 1, 0, 0) },
		"reluForward":     func() { reluForward(f(), u32(short), f()) },
		"reluBackward":    func() { reluBackward(f(), f(), u32(short)) },
		"dropoutForward":  func() { dropoutForward(f(), f(), f(), u32(short), 0.5, 2) },
		"dropoutBackward": func() { dropoutBackward(f(), f(), short) },
	}
	for name, call := range calls {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with a short operand did not panic", name)
				}
			}()
			call()
		}()
	}
}

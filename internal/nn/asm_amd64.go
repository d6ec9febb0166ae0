//go:build !noasm

package nn

// The AVX2 kernels of LayerNorm, ReLU and Dropout. Each runs only where
// cpu.Vector said so, on slices its Go entry point has cut to one length, a
// positive multiple of 8; each keeps multiply and add apart, with operands in
// its Go loop's order, and is held to that loop as float32 bits by the tests.

// normalizeAVX2 is normalizeGo: VSUBPS, VMULPS to x̂, then VMULPS, VADDPS.
//
//go:noescape
func normalizeAVX2(xh, out, x, g, b []float32, mean, inv float32)

// paramGradsAVX2 is paramGradsGo: dγ += dy·x̂ and dβ += dy, one row.
//
//go:noescape
func paramGradsAVX2(gg, gb, dy, xh []float32)

// inputGradAVX2 is inputGradGo: inv·((dy·γ − a) − (x̂·invD)·s2).
//
//go:noescape
func inputGradAVX2(dx, dy, g, xh []float32, inv, invD, a, s2 float32)

// reluForwardAVX2 is reluForwardGo: VCMPPS x > +0 (false on NaN) gives the
// mask, VANDPS the output.
//
//go:noescape
func reluForwardAVX2(out []float32, mask []uint32, x []float32)

// reluBackwardAVX2 is reluBackwardGo: dy VANDPS mask.
//
//go:noescape
func reluBackwardAVX2(out, dy []float32, mask []uint32)

// dropoutForwardAVX2 is dropoutForwardGo: VCVTDQ2PS is exact on a draw below
// 2²⁴ and ·2⁻²⁴ is the division, so the compare sees rng.Float32's value.
//
//go:noescape
func dropoutForwardAVX2(out, mask, x []float32, draws []uint32, keep, scale float32)

// dropoutBackwardAVX2 is dropoutBackwardGo: dy·mask.
//
//go:noescape
func dropoutBackwardAVX2(out, dy, mask []float32)

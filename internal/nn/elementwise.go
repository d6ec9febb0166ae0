package nn

import (
	"math"

	"repro/internal/cpu"
)

// The per-element passes of LayerNorm, ReLU and Dropout. Each entry point
// cuts every operand to one length first, so a short one panics here and
// never reaches the assembly; then the kernel, where cpu.Vector says so,
// takes the multiple-of-8 prefix and the Go loop the rest. The Go loops are
// the portable path and the oracle the kernels are held to as bits; each
// cuts its operands again so the compiler can drop the bounds checks.

// normalize writes xh = (x − mean)·inv and out = γ·xh + β.
func normalize(xh, out, x, g, b []float32, mean, inv float32) {
	n := len(x)
	xh, out, g, b = xh[:n], out[:n], g[:n], b[:n]
	if cpu.Vector(n) {
		v := n &^ 7
		normalizeAVX2(xh[:v], out[:v], x[:v], g[:v], b[:v], mean, inv)
		xh, out, x, g, b = xh[v:], out[v:], x[v:], g[v:], b[v:]
	}
	normalizeGo(xh, out, x, g, b, mean, inv)
}

func normalizeGo(xh, out, x, g, b []float32, mean, inv float32) {
	xh, out, g, b = xh[:len(x)], out[:len(x)], g[:len(x)], b[:len(x)]
	for j, v := range x {
		xh[j] = (v - mean) * inv
		out[j] = g[j]*xh[j] + b[j]
	}
}

// paramGrads adds one row's dγ += dy·x̂ and dβ += dy.
func paramGrads(gg, gb, dy, xh []float32) {
	n := len(dy)
	gg, gb, xh = gg[:n], gb[:n], xh[:n]
	if cpu.Vector(n) {
		v := n &^ 7
		paramGradsAVX2(gg[:v], gb[:v], dy[:v], xh[:v])
		gg, gb, dy, xh = gg[v:], gb[v:], dy[v:], xh[v:]
	}
	paramGradsGo(gg, gb, dy, xh)
}

func paramGradsGo(gg, gb, dy, xh []float32) {
	gg, gb, xh = gg[:len(dy)], gb[:len(dy)], xh[:len(dy)]
	for j, v := range dy {
		gg[j] += v * xh[j]
		gb[j] += v
	}
}

// inputGrad writes one row's dx = inv·((dy·γ − a) − (x̂·invD)·s2), where a
// is invD·Σ dy·γ and s2 is Σ (dy·γ)·x̂.
func inputGrad(dx, dy, g, xh []float32, inv, invD, a, s2 float32) {
	n := len(dy)
	dx, g, xh = dx[:n], g[:n], xh[:n]
	if cpu.Vector(n) {
		v := n &^ 7
		inputGradAVX2(dx[:v], dy[:v], g[:v], xh[:v], inv, invD, a, s2)
		dx, dy, g, xh = dx[v:], dy[v:], g[v:], xh[v:]
	}
	inputGradGo(dx, dy, g, xh, inv, invD, a, s2)
}

func inputGradGo(dx, dy, g, xh []float32, inv, invD, a, s2 float32) {
	dx, g, xh = dx[:len(dy)], g[:len(dy)], xh[:len(dy)]
	for j, v := range dy {
		dx[j] = inv * (v*g[j] - a - xh[j]*invD*s2)
	}
}

// reluForward writes out = x where x > 0 and +0 elsewhere, and the mask
// that says which.
func reluForward(out []float32, mask []uint32, x []float32) {
	n := len(x)
	out, mask = out[:n], mask[:n]
	if cpu.Vector(n) {
		v := n &^ 7
		reluForwardAVX2(out[:v], mask[:v], x[:v])
		out, mask, x = out[v:], mask[v:], x[v:]
	}
	reluForwardGo(out, mask, x)
}

func reluForwardGo(out []float32, mask []uint32, x []float32) {
	out, mask = out[:len(x)], mask[:len(x)]
	for i, v := range x {
		m := laneMask(v > 0)
		out[i] = math.Float32frombits(math.Float32bits(v) & m)
		mask[i] = m
	}
}

// reluBackward writes out = dy & mask, bitwise.
func reluBackward(out, dy []float32, mask []uint32) {
	n := len(dy)
	out, mask = out[:n], mask[:n]
	if cpu.Vector(n) {
		v := n &^ 7
		reluBackwardAVX2(out[:v], dy[:v], mask[:v])
		out, dy, mask = out[v:], dy[v:], mask[v:]
	}
	reluBackwardGo(out, dy, mask)
}

func reluBackwardGo(out, dy []float32, mask []uint32) {
	out, mask = out[:len(dy)], mask[:len(dy)]
	for i, v := range dy {
		out[i] = math.Float32frombits(math.Float32bits(v) & mask[i])
	}
}

// dropoutForward keeps x[i]·scale where draws[i]/2²⁴ < keep — what
// rng.Float32() < keep decides for the same draw — and writes +0 elsewhere;
// the mask holds scale or +0 to match.
func dropoutForward(out, mask, x []float32, draws []uint32, keep, scale float32) {
	n := len(x)
	out, mask, draws = out[:n], mask[:n], draws[:n]
	if cpu.Vector(n) {
		v := n &^ 7
		dropoutForwardAVX2(out[:v], mask[:v], x[:v], draws[:v], keep, scale)
		out, mask, x, draws = out[v:], mask[v:], x[v:], draws[v:]
	}
	dropoutForwardGo(out, mask, x, draws, keep, scale)
}

func dropoutForwardGo(out, mask, x []float32, draws []uint32, keep, scale float32) {
	out, mask, draws = out[:len(x)], mask[:len(x)], draws[:len(x)]
	scaleBits := math.Float32bits(scale)
	for i, v := range x {
		m := laneMask(float32(draws[i])/(1<<24) < keep) // rng.Float32() < keep
		out[i] = math.Float32frombits(math.Float32bits(v*scale) & m)
		mask[i] = math.Float32frombits(scaleBits & m)
	}
}

// dropoutBackward writes out = dy·mask.
func dropoutBackward(out, dy, mask []float32) {
	n := len(dy)
	out, mask = out[:n], mask[:n]
	if cpu.Vector(n) {
		v := n &^ 7
		dropoutBackwardAVX2(out[:v], dy[:v], mask[:v])
		out, dy, mask = out[v:], dy[v:], mask[v:]
	}
	dropoutBackwardGo(out, dy, mask)
}

func dropoutBackwardGo(out, dy, mask []float32) {
	out, mask = out[:len(dy)], mask[:len(dy)]
	for i, v := range dy {
		out[i] = v * mask[i]
	}
}

package nn

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// The three loops below are ReLU.Forward, ReLU.Backward and Dropout.Forward
// as they stood before they selected with bit masks: one data-dependent
// branch per element. They are frozen here as the oracle — what each element
// becomes, NaN payloads and zero signs included, is part of every fixed-seed
// loss.

func reluForwardRef(x []float32) (out []float32, mask []bool) {
	out, mask = make([]float32, len(x)), make([]bool, len(x))
	for i, v := range x {
		if v > 0 {
			out[i] = v
			mask[i] = true
		} else {
			out[i] = 0
			mask[i] = false
		}
	}
	return out, mask
}

func reluBackwardRef(dy []float32, mask []bool) []float32 {
	out := make([]float32, len(dy))
	for i, v := range dy {
		if mask[i] {
			out[i] = v
		} else {
			out[i] = 0
		}
	}
	return out
}

func dropoutForwardRef(x []float32, p float32, rng *tensor.RNG) (out, mask []float32) {
	keep := 1 - p
	scale := 1 / keep
	out, mask = make([]float32, len(x)), make([]float32, len(x))
	for i, v := range x {
		if rng.Float32() < keep {
			mask[i] = scale
			out[i] = v * scale
		} else {
			mask[i] = 0
			out[i] = 0
		}
	}
	return out, mask
}

// activationSpecials are the float32 bit patterns a comparison, a product or
// a mask could treat differently from the branch: NaNs of both signs with
// payloads, infinities, signed zeros, both ends of the denormal range (whose
// product with 1/keep is or is not still denormal), and the normal range's
// ends (whose product overflows).
var activationSpecials = []uint32{
	0x7FC00000, 0xFFC00000, 0x7FC00001, 0xFFC12345, 0x7F800001, 0xFFBFFFFF,
	0x7F800000, 0xFF800000, 0x00000000, 0x80000000,
	0x00000001, 0x80000001, 0x007FFFFF, 0x807FFFFF, 0x00800000, 0x80800000,
	0x7F7FFFFF, 0xFF7FFFFF, 0x3F800000, 0xBF800000,
}

// activationInput is n values, every third a special, the rest of both signs.
func activationInput(rng *tensor.RNG, n int) *tensor.Matrix {
	x := tensor.New(1, n)
	for i := range x.Data {
		if i%3 == 0 {
			x.Data[i] = math.Float32frombits(activationSpecials[rng.Intn(len(activationSpecials))])
		} else {
			x.Data[i] = rng.Float32()*4 - 2
		}
	}
	return x
}

func mustSameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, reference %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d] = %#08x, reference loop %#08x", what, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

func TestReLUMatchesReference(t *testing.T) {
	rng := tensor.NewRNG(11)
	r := &ReLU{}
	for _, n := range []int{1, 7, 8, 9, 15, 16, 17, 64, 1000, 333} { // grows, then reuses, the scratch
		x, dy := activationInput(rng, n), activationInput(rng, n)
		wantOut, wantMask := reluForwardRef(x.Data)
		mustSameBits(t, "ReLU.Forward", r.Forward(x).Data, wantOut)
		mustSameBits(t, "ReLU.Backward", r.Backward(dy).Data, reluBackwardRef(dy.Data, wantMask))
	}
}

func TestDropoutMatchesReference(t *testing.T) {
	fill := tensor.NewRNG(13)
	for _, p := range []float32{0.5, 0.1, 0.9, 1} {
		dp := &Dropout{P: p}
		for _, n := range []int{1, 7, 8, 9, 15, 16, 17, 64, 1000, 333} {
			x := activationInput(fill, n)
			rng, ref := tensor.NewRNG(uint64(n)), tensor.NewRNG(uint64(n))
			wantOut, wantMask := dropoutForwardRef(x.Data, p, ref)
			mustSameBits(t, "Dropout.Forward", dp.Forward(x, rng, true).Data, wantOut)
			mustSameBits(t, "Dropout mask", dp.mask, wantMask)
			if rng.State() != ref.State() {
				t.Fatalf("p %v n %d: the generator ended in a different state than the reference's", p, n)
			}
		}
	}
}

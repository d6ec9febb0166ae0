package cpu

import "testing"

func TestVectorNeedsAVX2AndOneWholeVector(t *testing.T) {
	defer func(v bool) { AVX2 = v }(AVX2)
	for _, have := range []bool{false, true} {
		AVX2 = have
		for n := 0; n <= 17; n++ {
			if got, want := Vector(n), have && n >= 8; got != want {
				t.Errorf("AVX2 %v: Vector(%d) = %v, want %v", have, n, got, want)
			}
		}
	}
}

package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/kerneltest"
)

// checkMinMaxMatchesPortable holds MinMax to minMaxGo as bits on a copy of v
// at the end of guard — memory from kerneltest.AtPageEnd, at least eight
// elements longer than v — so the row starts at every alignment as lengths
// vary, a read past its end faults, and a read before its start returns the
// ±1e30 planted there. The row is read-only to both paths.
func checkMinMaxMatchesPortable(t testing.TB, what string, guard, v []float32) {
	t.Helper()
	for i := range guard {
		guard[i] = float32(1-2*(i%2)) * 1e30
	}
	row := guard[len(guard)-len(v):]
	copy(row, v)
	what = fmt.Sprintf("MinMax %s len %d", what, len(v))
	kerneltest.Differential(t, what, make([]float32, 2), len(v)%10, func(d []float32) { d[0], d[1] = MinMax(row) }, guard)
}

func TestMinMaxMatchesPortable(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	negZero := math.Float32frombits(0x80000000)
	denormal := math.Float32frombits(1)
	rng := NewRNG(41)
	guard := kerneltest.AtPageEnd[float32](t, 602+8)
	for _, n := range kerneltest.Widths() {
		v := make([]float32, n)
		check := func(what string) {
			t.Helper()
			checkMinMaxMatchesPortable(t, what, guard, v)
		}
		random := func() {
			for i := range v {
				v[i] = rng.Float32()*8 - 4
			}
		}
		random()
		check("ordinary")
		fillAxpy(rng, v)
		check("one special in four")

		// A NaN anywhere but the front is skipped; at the front it is the
		// answer. Each position is also where the extremes sit, so a kernel
		// that lets a NaN wipe an accumulator loses them.
		for _, at := range []int{0, 1, n / 2, n - 2, n - 1} {
			if at < 0 || at >= n {
				continue
			}
			random()
			v[at] = nan
			check(fmt.Sprintf("NaN at %d", at))
			if at > 0 {
				v[at-1], v[0] = -9, 9
				check(fmt.Sprintf("NaN at %d after the minimum", at))
			}
		}
		for i := range v {
			v[i] = nan
		}
		check("all NaN")
		v[n-1] = 1
		check("NaN until the last lane")

		// Zeros: the first one seen is the one returned, whichever lane it
		// is in and whether it is the minimum, the maximum or both.
		for _, first := range []float32{0, negZero} {
			for i := range v {
				v[i] = -first // the other zero
			}
			v[0] = first
			check("all zero, other sign first")
			for _, at := range []int{1, 7, 8, 9, n / 2, n - 1} {
				if at >= n {
					continue
				}
				for _, sign := range []float32{1, -1} {
					for i := range v {
						v[i] = sign * (1 + rng.Float32())
					}
					v[at] = first
					if at+1 < n {
						v[at+1] = -first // next lane
					}
					if at+8 < n {
						v[at+8] = -first // same lane, next vector
					}
					check(fmt.Sprintf("zero %#08x at %d, sign %v", math.Float32bits(first), at, sign))
					if at > 0 {
						v[at-1] = nan
						check("zero after a NaN")
					}
				}
			}
		}

		random()
		v[n/2], v[n-1] = inf, -inf
		check("infinities")
		v[0] = -inf
		check("-Inf first")
		for i := range v {
			v[i] = denormal * float32(1+rng.Intn(100))
		}
		v[n/3] = -denormal
		check("denormals")
	}
}

// FuzzMinMaxMatchesPortable reinterprets raw bytes as the row, so the fuzzer
// reaches bit patterns, lengths and NaN/zero placements the table does not.
func FuzzMinMaxMatchesPortable(f *testing.F) {
	f.Add(make([]byte, 4*9))
	f.Add([]byte{0, 0, 0, 128, 0, 0, 0, 0, 0, 0, 192, 127, 0, 0, 128, 63, 0, 0, 128, 191,
		0, 0, 0, 0, 0, 0, 0, 128, 1, 0, 0, 0, 0, 0, 128, 255, 0, 0, 128, 127})
	wide := make([]byte, 4*75)
	for i := range wide {
		wide[i] = byte(i * 37)
	}
	f.Add(wide)
	f.Fuzz(func(t *testing.T, raw []byte) {
		n := len(raw) / 4
		if n > 2048 {
			return
		}
		v := make([]float32, n)
		for i := range v {
			v[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		checkMinMaxMatchesPortable(t, "fuzz", kerneltest.AtPageEnd[float32](t, n+8), v)
	})
}

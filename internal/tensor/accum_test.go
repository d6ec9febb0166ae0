package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/kerneltest"
)

// The tests below hold the register-accumulating kernel under MatMulInto and
// TMatMulInto to the Axpy loops it replaces — the portable path and the
// contract — as float32 bits, under the rules of axpy_test.go.

// checkDenseMatchesPortable runs a × b through MatMulInto and, with a
// transposed, through TMatMulInto, each on an out that starts off elements
// into its buffer, and then row range by row range as parallelRows would
// split it.
func checkDenseMatchesPortable(t testing.TB, a, b *Matrix, off int) {
	t.Helper()
	m, k, n := a.Rows, a.Cols, b.Cols
	at := offsetMatrix(k, m, (off+3)%10)
	for i := 0; i < m; i++ {
		for j, v := range a.Row(i) {
			at.Data[j*m+i] = v
		}
	}
	out := New(m, n)
	out.Fill(float32(math.NaN())) // Into overwrites
	shape := fmt.Sprintf("%dx%d × %dx%d", m, k, k, n)
	splits := []int{0, m / 3, m/3 + 1, m}
	kerneltest.Differential(t, "MatMulInto "+shape, out.Data, off, func(d []float32) {
		MatMulInto(FromSlice(m, n, d), a, b)
	}, a.Data, b.Data)
	kerneltest.Differential(t, "TMatMulInto "+shape, out.Data, off, func(d []float32) {
		TMatMulInto(FromSlice(m, n, d), at, b)
	}, at.Data, b.Data)
	kerneltest.Differential(t, "matMulRange "+shape, out.Data, off, func(d []float32) {
		for s := 1; s < len(splits); s++ {
			matMulRange(FromSlice(m, n, d), a, b, min(splits[s-1], m), min(splits[s], m))
		}
	}, a.Data, b.Data)
	kerneltest.Differential(t, "tMatMulRange "+shape, out.Data, off, func(d []float32) {
		clear(d)
		for s := 1; s < len(splits); s++ {
			tMatMulRange(FromSlice(m, n, d), at, b, min(splits[s-1], m), min(splits[s], m))
		}
	}, at.Data, b.Data)
}

// poisonSkipped makes some k matter only through the skip: column k of a is
// ±0 in every row and row k of b is NaN and infinities, so an output stays
// finite only if the term is skipped as the Go loops skip it.
func poisonSkipped(rng *RNG, a, b *Matrix) {
	for k := 0; k < a.Cols; k++ {
		if rng.Intn(4) != 0 {
			continue
		}
		for i := 0; i < a.Rows; i++ {
			a.Set(i, k, float32(math.Copysign(0, float64(i%2)-0.5)))
		}
		for j := range b.Row(k) {
			b.Set(k, j, math.Float32frombits(axpySpecials[(j+k)%8]))
		}
	}
}

// TestAccumulateMatchesPortable: every output width 1–130 (every split into
// tiles of sixteen and a masked rest) plus the input widths of reddit-sim
// and yelp-sim, against inner lengths on both sides of tMatMulRange's chunk
// and row counts on both sides of the four-row tile and of the goroutine
// gate — filled in turn with ordinary values (whose sums round differently
// in any other order), a third zeros, skipped terms that would poison the
// sum, and specials in every operand.
func TestAccumulateMatchesPortable(t *testing.T) {
	kerneltest.SkipIfPortableFuses(t)
	rng := NewRNG(43)
	for _, n := range kerneltest.Widths() {
		for ki, k := range []int{0, 1, 127, 128, 129, 1000} {
			m := 1 + (n+ki)%9
			if k == 1 && n%32 == 0 || k == 127 && n == 47 {
				m = 300 // past the parallelRows gate, for both products
			}
			a, b := offsetMatrix(m, k, (n+ki)%10), offsetMatrix(k, n, (n*3+ki)%10)
			switch (n + ki) % 4 {
			case 0:
				a.FillUniform(rng, -2, 2)
				b.FillUniform(rng, -2, 2)
			case 1:
				a.FillUniform(rng, -2, 2)
				b.FillUniform(rng, -2, 2)
				sparsify(rng, a)
			case 2:
				a.FillUniform(rng, -2, 2)
				b.FillUniform(rng, -2, 2)
				poisonSkipped(rng, a, b)
			case 3:
				fillAxpy(rng, a.Data)
				fillAxpy(rng, b.Data)
			}
			checkDenseMatchesPortable(t, a, b, (n+2*ki)%10)
		}
	}
}

// TestAccumulateSpecials puts each special value in every k position of a
// sum that is otherwise ordinary, as the scale and as the scaled row, with
// the inner length straddling one chunk boundary of tMatMulRange.
func TestAccumulateSpecials(t *testing.T) {
	kerneltest.SkipIfPortableFuses(t)
	rng := NewRNG(47)
	const m, n = 5, 19 // a four-row tile and a single row; one whole vector and a masked one
	for _, u := range axpySpecials {
		special := math.Float32frombits(u)
		for _, k := range []int{7, tMatMulChunk + 3} {
			for pos := 0; pos < k; pos += 1 + k/8 {
				a, b := randomMatrix(rng, m, k), randomMatrix(rng, k, n)
				for i := 0; i < m; i++ {
					a.Set(i, pos, special)
				}
				checkDenseMatchesPortable(t, a, b, pos%10)
				for j := 0; j < n; j++ {
					b.Set((pos+j)%k, j, -special)
				}
				checkDenseMatchesPortable(t, a, b, pos%10)
			}
		}
	}
}

// TestAccumulateDispatch holds the two checks that let MatMulInto and
// TMatMulInto run accumAVX2: allFinite says yes to every finite value — ±0,
// both ends of the denormals, ±MaxFloat32 — and no to each infinity and NaN
// at every position; hasNaN says no to every value but a NaN, infinities
// included, and yes to each NaN at every position. Every differential test
// above would still pass with a check that never let the kernel run, since
// the Go loop is their oracle; this one would not.
func TestAccumulateDispatch(t *testing.T) {
	var finite, special []float32
	for _, u := range axpySpecials {
		if v := math.Float32frombits(u); math.IsInf(float64(v), 0) || v != v {
			special = append(special, v)
		} else {
			finite = append(finite, v)
		}
	}
	for n := 1; n <= 19; n++ {
		v := make([]float32, n)
		for i := range v {
			v[i] = finite[(i+n)%len(finite)]
		}
		if !allFinite(v) || hasNaN(v) {
			t.Fatalf("%v: allFinite %v, hasNaN %v; want true, false", v, allFinite(v), hasNaN(v))
		}
		for pos := range v {
			for _, s := range special {
				w := append([]float32(nil), v...)
				w[pos] = s
				if allFinite(w) {
					t.Fatalf("allFinite is true with %v at %d of %d", s, pos, n)
				}
				if got, want := hasNaN(w), s != s; got != want {
					t.Fatalf("hasNaN is %v with %v at %d of %d", got, s, pos, n)
				}
			}
		}
	}
}

// FuzzAccumulateMatchesPortable reinterprets raw bytes as a and b so the
// fuzzer reaches bit patterns and shapes the tables do not name.
func FuzzAccumulateMatchesPortable(f *testing.F) {
	f.Add(make([]byte, 4*(5*9+3*5)), uint8(5), uint8(9), uint8(0))
	f.Add([]byte{0, 0, 128, 63, 0, 0, 192, 127, 0, 0, 128, 255, 1, 0, 0, 0, 0, 0, 0, 128}, uint8(1), uint8(3), uint8(7))
	f.Add(make([]byte, 4*(130*17+6*130)), uint8(130), uint8(17), uint8(3))
	// Ordinary values: eleven rows of b, 35 wide, under five rows of a.
	rng := NewRNG(53)
	ordinary := make([]byte, 0, 4*(11*35+5*11))
	for i := 0; i < cap(ordinary)/4; i++ {
		ordinary = binary.LittleEndian.AppendUint32(ordinary, math.Float32bits(rng.Float32()*4-2))
	}
	f.Add(ordinary, uint8(11), uint8(34), uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, kk, nn, off uint8) {
		kerneltest.SkipIfPortableFuses(t)
		k, n := 1+int(kk)%(tMatMulChunk+8), 1+int(nn%80)
		// raw holds b (k rows of n), then as many rows of a as are left.
		m := (len(raw)/4 - k*n) / k
		if m < 1 || m > 64 {
			return
		}
		a, b := offsetMatrix(m, k, int(off%10)), offsetMatrix(k, n, int(off/10%10))
		for i := range b.Data {
			b.Data[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		for i := range a.Data {
			a.Data[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*(k*n+i):]))
		}
		checkDenseMatchesPortable(t, a, b, int(off%7))
	})
}

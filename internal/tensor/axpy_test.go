package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/cpu"
	"repro/internal/kerneltest"
)

// The tests below hold the assembly Axpy to the portable loop, and the
// kernels built on it to naive loops, as float32 BITS: the per-element
// operation order is the contract, so "close" is a failure. The one freedom
// is which NaN (kerneltest.Same). kerneltest.Differential is the harness:
// the vector path against the Go loop on a sentinel-guarded dst.

// axpySpecials are the float32 bit patterns arithmetic treats specially:
// quiet and signalling NaNs with distinct payloads and signs, infinities,
// signed zeros, the denormal range's ends, the normal range's ends, and
// values whose product or sum rounds.
var axpySpecials = []uint32{
	0x7FC00000, 0xFFC00000, 0x7FC00001, 0xFFC12345, 0x7F800001, 0xFFBFFFFF,
	0x7F800000, 0xFF800000, 0x00000000, 0x80000000,
	0x00000001, 0x807FFFFF, 0x00800000, 0x7F7FFFFF, 0xFF7FFFFF,
	0x3F800000, 0xBF800000, 0x3F800800, 0x33800000, 0x4B800000,
}

// fillAxpy fills v with random values, about one in four of them special.
func fillAxpy(rng *RNG, v []float32) {
	for i := range v {
		if rng.Intn(4) == 0 {
			v[i] = math.Float32frombits(axpySpecials[rng.Intn(len(axpySpecials))])
		} else {
			v[i] = rng.Float32()*8 - 4
		}
	}
}

// checkAxpyMatchesPortable holds Axpy to axpyGo on a dst that starts off
// elements into its buffer.
func checkAxpyMatchesPortable(t testing.TB, dst, src []float32, alpha float32, off int) {
	t.Helper()
	what := fmt.Sprintf("Axpy len %d alpha %#08x", len(dst), math.Float32bits(alpha))
	kerneltest.Differential(t, what, dst, off, func(d []float32) { Axpy(d, src, alpha) }, src)
}

func TestAxpyMatchesPortable(t *testing.T) {
	kerneltest.SkipIfPortableFuses(t)
	if !cpu.AVX2 {
		t.Log("no AVX2 on this host: Axpy is the portable loop")
	}
	rng := NewRNG(3)
	alphas := []float32{0, 1, -1, 0.37, -2.5e-3}
	for _, u := range axpySpecials {
		alphas = append(alphas, math.Float32frombits(u))
	}
	dst, sbuf := make([]float32, 130), make([]float32, 160)
	for n := 0; n <= 130; n++ {
		for trial, alpha := range alphas {
			// Unaligned starts: dst and src begin at different element
			// offsets of their backing arrays.
			doff, soff := trial%10, (trial*7+n)%10
			src := sbuf[soff : soff+n]
			fillAxpy(rng, dst[:n])
			fillAxpy(rng, src)
			checkAxpyMatchesPortable(t, dst[:n], src, alpha, doff)
		}
	}
	// Every special against every special, in all three positions, inside a
	// vector lane and in the scalar tail.
	for _, a := range axpySpecials {
		for _, d := range axpySpecials {
			dst, src := make([]float32, 13), make([]float32, 13)
			for i := range dst {
				dst[i] = math.Float32frombits(d)
				src[i] = math.Float32frombits(axpySpecials[i%len(axpySpecials)])
			}
			checkAxpyMatchesPortable(t, dst, src, math.Float32frombits(a), 0)
			for i := range src {
				src[i] = math.Float32frombits(axpySpecials[(i+7)%len(axpySpecials)])
			}
			checkAxpyMatchesPortable(t, dst, src, math.Float32frombits(a), 0)
		}
	}
}

// TestAxpyStaysInsideSlice runs the kernel on a dst at every element offset
// 0–9 of a sentinel-filled buffer: nothing outside dst may move, src is
// read-only, and a longer src changes nothing.
func TestAxpyStaysInsideSlice(t *testing.T) {
	kerneltest.SkipIfPortableFuses(t)
	lengths := []int{0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 39, 40, 41, 47, 63, 64, 65, 100, 130}
	src := make([]float32, 160)
	for i := range src {
		src[i] = float32(i) + 0.5
	}
	for off := 0; off <= 9; off++ {
		for _, n := range lengths {
			dst := make([]float32, n)
			for i := range dst {
				dst[i] = 1
			}
			checkAxpyMatchesPortable(t, dst, src[9-off:], 2, off) // src longer than dst
		}
	}
}

func TestAxpyShortSrcPanics(t *testing.T) {
	for _, n := range []int{3, 40} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Axpy with len(dst) %d and a shorter src did not panic", n)
				}
			}()
			Axpy(make([]float32, n), make([]float32, n-1), 1)
		}()
	}
}

// FuzzAxpyMatchesPortable reinterprets raw bytes as dst and src so the
// fuzzer reaches bit patterns and lengths the table does not name.
func FuzzAxpyMatchesPortable(f *testing.F) {
	f.Add([]byte{0, 0, 128, 63, 0, 0, 192, 127}, uint32(0x3F800000), uint8(0), uint8(0))
	f.Add(make([]byte, 8*33), uint32(0x7FC00001), uint8(3), uint8(5))
	f.Add(make([]byte, 8*9), uint32(0xFF800000), uint8(9), uint8(1))
	f.Fuzz(func(t *testing.T, raw []byte, alphaBits uint32, doff, soff uint8) {
		kerneltest.SkipIfPortableFuses(t)
		n := len(raw) / 8
		if n > 1024 {
			return
		}
		s := int(soff % 10)
		dst, src := make([]float32, n), make([]float32, s+n)[s:]
		for i := range dst {
			dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
			src[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*(n+i):]))
		}
		checkAxpyMatchesPortable(t, dst, src, math.Float32frombits(alphaBits), int(doff%10))
	})
}

// sparsify zeroes about a third of m so the kernels' av == 0 skips run.
func sparsify(rng *RNG, m *Matrix) {
	for i := range m.Data {
		if rng.Intn(3) == 0 {
			m.Data[i] = 0
		}
	}
}

func mustEqualBits(t *testing.T, what string, got, want *Matrix) {
	t.Helper()
	for i := range want.Data {
		if !kerneltest.Same(got.Data[i], want.Data[i]) {
			t.Fatalf("%s %dx%d: element %d = %v (%#08x), naive loop %v (%#08x)", what, want.Rows, want.Cols, i,
				got.Data[i], math.Float32bits(got.Data[i]), want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
}

// TestDenseKernelsMatchNaiveBits: MatMulInto and TMatMulInto against a
// triple loop that adds the k products of one output element in k order,
// for every output width 1–70 (every vector/tail split) and for a row count
// that fans out across goroutines.
func TestDenseKernelsMatchNaiveBits(t *testing.T) {
	kerneltest.SkipIfPortableFuses(t)
	rng := NewRNG(17)
	for n := 1; n <= 70; n++ {
		rows := 5
		if n%23 == 0 {
			rows = 300 // past the parallelRows gate
		}
		k := 1 + n%13
		a, b := randomMatrix(rng, rows, k), randomMatrix(rng, k, n)
		sparsify(rng, a)
		want := New(rows, n)
		for i := 0; i < rows; i++ {
			for j := 0; j < n; j++ {
				var s float32
				for kk := 0; kk < k; kk++ {
					if av := a.At(i, kk); av != 0 {
						s += av * b.At(kk, j)
					}
				}
				want.Set(i, j, s)
			}
		}
		got := New(rows, n)
		got.Fill(float32(math.NaN())) // Into overwrites
		MatMulInto(got, a, b)
		mustEqualBits(t, "MatMulInto", got, want)

		// aᵀ×b with a k×rows: the same sums, reached through tMatMulRange.
		at := a.Transpose()
		got.Fill(float32(math.NaN()))
		TMatMulInto(got, at, b)
		mustEqualBits(t, "TMatMulInto", got, want)
	}
}

func TestMatrixAXPYBits(t *testing.T) {
	kerneltest.SkipIfPortableFuses(t)
	rng := NewRNG(23)
	for _, cols := range []int{1, 7, 8, 33, 64, 70} {
		m, o := randomMatrix(rng, 6, cols), randomMatrix(rng, 6, cols)
		want := m.Clone()
		for i, v := range o.Data {
			want.Data[i] += -0.75 * v
		}
		m.AXPY(-0.75, o)
		mustEqualBits(t, "AXPY", m, want)
	}
}

package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/cpu"
	"repro/internal/kerneltest"
)

// The tests below hold MatMulTInto to dot over b's rows — the portable path
// and the contract — as float32 bits, under the rules of axpy_test.go:
// "close" is a failure and a NaN equals any NaN.

// offsetMatrix returns a rows×cols matrix that starts off elements into its
// backing array, so rows begin at addresses no vector width divides.
func offsetMatrix(rows, cols, off int) *Matrix {
	return FromSlice(rows, cols, make([]float32, off+rows*cols)[off:])
}

// checkMatMulTMatchesDot demands out = a × bᵀ element for element as dot
// computes it, on an out that starts off elements into its buffer and is
// full of NaNs beforehand (Into overwrites).
func checkMatMulTMatchesDot(t testing.TB, a, b *Matrix, off int) {
	t.Helper()
	out := New(a.Rows, b.Rows)
	out.Fill(float32(math.NaN()))
	what := fmt.Sprintf("MatMulTInto %dx%d × (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols)
	kerneltest.Differential(t, what, out.Data, off, func(d []float32) {
		MatMulTInto(FromSlice(a.Rows, b.Rows, d), a, b)
	}, a.Data, b.Data)
}

func TestMatMulTMatchesDot(t *testing.T) {
	kerneltest.SkipIfPortableFuses(t)
	if !cpu.AVX2 {
		t.Log("no AVX2 on this host: MatMulT is dot")
	}
	rng := NewRNG(29)
	// Every inner length 0–23 (whole groups of four and every tail) against
	// every output width 1–78 (below one vector, every 32/8/scalar split).
	for k := 0; k <= 23; k++ {
		for n := 1; n <= 78; n++ {
			rows := 1 + (k+n)%3
			if k == 9 && n%31 == 0 {
				rows = 300 // past the parallelRows gate
			}
			a, b := offsetMatrix(rows, k, n%10), offsetMatrix(n, k, k%10)
			if (k+n)%2 == 0 {
				fillAxpy(rng, a.Data)
				fillAxpy(rng, b.Data)
			} else {
				a.FillUniform(rng, -2, 2)
				b.FillUniform(rng, -2, 2)
			}
			checkMatMulTMatchesDot(t, a, b, (k*3+n)%10)
		}
	}
}

// TestMatMulTSpecials puts one special value in every k position of a sum
// that is otherwise ordinary, and fills whole operands with each special:
// signed zeros (a sum of −0 products is +0, because s starts at +0),
// infinities of both signs meeting in one group, denormal products, NaNs.
func TestMatMulTSpecials(t *testing.T) {
	kerneltest.SkipIfPortableFuses(t)
	rng := NewRNG(31)
	const rows, k, n = 2, 11, 19 // two groups of four and a tail of three; two vectors and a scalar tail
	for _, u := range axpySpecials {
		special := math.Float32frombits(u)
		for pos := 0; pos < k; pos++ {
			a, b := randomMatrix(rng, rows, k), randomMatrix(rng, n, k)
			for i := 0; i < rows; i++ {
				a.Set(i, pos, special)
			}
			checkMatMulTMatchesDot(t, a, b, 0)
			for j := 0; j < n; j++ {
				b.Set(j, (pos+j)%k, -special)
			}
			checkMatMulTMatchesDot(t, a, b, 0)
		}
		for _, v := range axpySpecials {
			a, b := New(rows, k), New(n, k)
			a.Fill(special)
			b.Fill(math.Float32frombits(v))
			checkMatMulTMatchesDot(t, a, b, 0)
		}
	}
	a, b, out := New(rows, k), New(n, k), New(rows, n)
	a.Fill(float32(math.Copysign(0, -1)))
	b.Fill(1)
	MatMulTInto(out, a, b)
	for i, v := range out.Data {
		if math.Float32bits(v) != 0 {
			t.Fatalf("sum of negative-zero products: element %d = %#08x, want +0", i, math.Float32bits(v))
		}
	}
}

// TestMatMulTStaysInsideSlices runs the kernel on matrices at every element
// offset 0–9 of their buffers: nothing outside out may move, and a and b are
// read-only.
func TestMatMulTStaysInsideSlices(t *testing.T) {
	kerneltest.SkipIfPortableFuses(t)
	shapes := [][3]int{{1, 1, 8}, {3, 4, 8}, {2, 5, 9}, {3, 7, 31}, {2, 8, 32}, {3, 3, 33}, {1, 6, 40}, {2, 9, 47}, {2, 4, 64}, {1, 13, 78}}
	for off := 0; off <= 9; off++ {
		for _, sh := range shapes {
			rows, k, n := sh[0], sh[1], sh[2]
			a, b := offsetMatrix(rows, k, 9-off), offsetMatrix(n, k, off)
			for i := range a.Data {
				a.Data[i] = float32(i%7) - 3
			}
			for i := range b.Data {
				b.Data[i] = float32(i%5) + 0.5
			}
			checkMatMulTMatchesDot(t, a, b, off)
		}
	}
}

// TestMatMulTSteadyStateAllocs: the transposed copy of b comes from a pool,
// so a warmed MatMulTInto below the goroutine gate does not allocate.
func TestMatMulTSteadyStateAllocs(t *testing.T) {
	rng := NewRNG(37)
	a, b, out := randomMatrix(rng, 12, 16), randomMatrix(rng, 27, 16), New(12, 27)
	MatMulTInto(out, a, b)
	if avg := testing.AllocsPerRun(50, func() { MatMulTInto(out, a, b) }); avg != 0 && !raceEnabled {
		t.Errorf("MatMulTInto allocates %.1f times per call, want 0", avg)
	}
}

// FuzzMatMulTMatchesDot reinterprets raw bytes as a and b so the fuzzer
// reaches bit patterns and shapes the tables do not name.
func FuzzMatMulTMatchesDot(f *testing.F) {
	f.Add(make([]byte, 4*(2*5+9*5)), uint8(5), uint8(9), uint8(0))
	f.Add([]byte{0, 0, 128, 63, 0, 0, 192, 127, 0, 0, 128, 255, 1, 0, 0, 0}, uint8(1), uint8(3), uint8(7))
	f.Add(make([]byte, 4*(3*23+40*23)), uint8(23), uint8(40), uint8(3))
	// Ordinary values, whose sums round differently under any other
	// association: two rows of a against 35 rows of b, eleven wide.
	rng := NewRNG(41)
	ordinary := make([]byte, 0, 4*(2+35)*11)
	for i := 0; i < cap(ordinary)/4; i++ {
		ordinary = binary.LittleEndian.AppendUint32(ordinary, math.Float32bits(rng.Float32()*4-2))
	}
	f.Add(ordinary, uint8(11), uint8(34), uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, kk, nn, off uint8) {
		kerneltest.SkipIfPortableFuses(t)
		k, n := int(kk%40), 1+int(nn%80)
		// raw holds b (n rows of k), then as many rows of a as are left.
		rows := 0
		if k > 0 {
			rows = (len(raw)/4 - n*k) / k
		}
		if rows < 1 || rows > 64 {
			return
		}
		a, b := offsetMatrix(rows, k, int(off%10)), offsetMatrix(n, k, int(off/10%10))
		for i := range b.Data {
			b.Data[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		for i := range a.Data {
			a.Data[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*(n*k+i):]))
		}
		checkMatMulTMatchesDot(t, a, b, int(off%7))
	})
}

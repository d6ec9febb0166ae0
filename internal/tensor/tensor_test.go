package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("bad shape: %+v", m)
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("New must zero")
		}
	}
}

func TestFromSlicePanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice(2, 2, []float32{1, 2, 3})
}

func TestAtSetRow(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatal("At/Set mismatch")
	}
	r := m.Row(1)
	r[0] = 5
	if m.At(1, 0) != 5 {
		t.Fatal("Row must be a view")
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float32{7, 8, 9, 10, 11, 12})
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("MatMul[%d] = %v, want %v", i, c.Data[i], v)
		}
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

// matMulNaive is the reference implementation for property tests.
func matMulNaive(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += float64(a.At(i, k)) * float64(b.At(k, j))
			}
			out.Set(i, j, float32(s))
		}
	}
	return out
}

func randomMatrix(rng *RNG, rows, cols int) *Matrix {
	m := New(rows, cols)
	m.FillUniform(rng, -2, 2)
	return m
}

func TestMatMulMatchesNaive(t *testing.T) {
	rng := NewRNG(7)
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+rng.Intn(40), 1+rng.Intn(40), 1+rng.Intn(40)
		a, b := randomMatrix(rng, m, k), randomMatrix(rng, k, n)
		got, want := MatMul(a, b), matMulNaive(a, b)
		if !Equal(got, want, 1e-3) {
			t.Fatalf("trial %d (%dx%dx%d): MatMul diverges from naive", trial, m, k, n)
		}
	}
}

func TestMatMulTAndTMatMulViaTranspose(t *testing.T) {
	rng := NewRNG(11)
	for trial := 0; trial < 15; trial++ {
		m, k, n := 1+rng.Intn(30), 1+rng.Intn(30), 1+rng.Intn(30)
		a, b := randomMatrix(rng, m, k), randomMatrix(rng, n, k)
		if !Equal(MatMulT(a, b), MatMul(a, b.Transpose()), 1e-3) {
			t.Fatalf("trial %d: MatMulT != A·Bᵀ", trial)
		}
		c := randomMatrix(rng, k, m)
		d := randomMatrix(rng, k, n)
		if !Equal(TMatMul(c, d), MatMul(c.Transpose(), d), 1e-3) {
			t.Fatalf("trial %d: TMatMul != Aᵀ·B", trial)
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		rng := NewRNG(seed)
		m := randomMatrix(rng, 1+rng.Intn(20), 1+rng.Intn(20))
		return Equal(m.Transpose().Transpose(), m, 0)
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAddSubScaleProperties(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		rng := NewRNG(seed)
		r, c := 1+rng.Intn(15), 1+rng.Intn(15)
		a, b := randomMatrix(rng, r, c), randomMatrix(rng, r, c)
		// a+b == b+a
		if !Equal(Add(a, b), Add(b, a), 0) {
			return false
		}
		// a*2 == a+a
		d := a.Clone()
		d.Scale(2)
		return Equal(d, Add(a, a), 1e-5)
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAXPY(t *testing.T) {
	rng := NewRNG(5)
	a, b := randomMatrix(rng, 6, 7), randomMatrix(rng, 6, 7)
	want := Add(a, b)
	got := a.Clone()
	got.AXPY(1, b)
	if !Equal(got, want, 1e-6) {
		t.Fatal("AXPY(1) != Add")
	}
}

func TestGatherRows(t *testing.T) {
	rng := NewRNG(9)
	m := randomMatrix(rng, 10, 4)
	idx := []int{3, 3, 0, 9}
	g := m.GatherRows(idx)
	for i, r := range idx {
		for j := 0; j < 4; j++ {
			if g.At(i, j) != m.At(r, j) {
				t.Fatalf("gather mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestConcatSplitRoundTrip(t *testing.T) {
	rng := NewRNG(13)
	a, b := randomMatrix(rng, 5, 3), randomMatrix(rng, 5, 4)
	cat := ConcatCols(a, b)
	if cat.Cols != 7 {
		t.Fatalf("concat cols %d", cat.Cols)
	}
	a2, b2 := cat.SplitCols(3)
	if !Equal(a, a2, 0) || !Equal(b, b2, 0) {
		t.Fatal("concat/split round trip failed")
	}
}

func TestRowSliceCopies(t *testing.T) {
	m := FromSlice(3, 2, []float32{1, 2, 3, 4, 5, 6})
	s := m.RowSlice(1, 3)
	s.Set(0, 0, 99)
	if m.At(1, 0) == 99 {
		t.Fatal("RowSlice must copy")
	}
}

func TestReductions(t *testing.T) {
	m := FromSlice(2, 2, []float32{1, -2, 3, -4})
	if m.Sum() != -2 {
		t.Fatalf("Sum = %v", m.Sum())
	}
	if m.MaxAbs() != 4 {
		t.Fatalf("MaxAbs = %v", m.MaxAbs())
	}
	want := math.Sqrt(1 + 4 + 9 + 16)
	if math.Abs(m.FrobeniusNorm()-want) > 1e-9 {
		t.Fatalf("Frobenius = %v want %v", m.FrobeniusNorm(), want)
	}
}

func TestMinMax(t *testing.T) {
	mn, mx := MinMax([]float32{3, -1, 7, 0})
	if mn != -1 || mx != 7 {
		t.Fatalf("MinMax = %v, %v", mn, mx)
	}
	mn, mx = MinMax(nil)
	if mn != 0 || mx != 0 {
		t.Fatal("empty MinMax should be zero")
	}
}

func TestArgMaxRow(t *testing.T) {
	m := FromSlice(2, 3, []float32{1, 5, 2, -1, -5, -2})
	if m.ArgMaxRow(0) != 1 || m.ArgMaxRow(1) != 0 {
		t.Fatal("ArgMaxRow wrong")
	}
}

func TestDot(t *testing.T) {
	if Dot([]float32{1, 2, 3, 4, 5}, []float32{1, 1, 1, 1, 1}) != 15 {
		t.Fatal("Dot wrong")
	}
}

func TestEqualShapes(t *testing.T) {
	if Equal(New(2, 2), New(2, 3), 1) {
		t.Fatal("shapes differ")
	}
}

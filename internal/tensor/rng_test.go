package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds should diverge, %d collisions", same)
	}
}

func TestFloat64Range(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		rng := NewRNG(seed)
		for i := 0; i < 50; i++ {
			f := rng.Float64()
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFloat64Mean(t *testing.T) {
	rng := NewRNG(9)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += rng.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %v too far from 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	rng := NewRNG(17)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := rng.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) should hit every value in 1000 draws, hit %d", len(seen))
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	rng := NewRNG(23)
	p := rng.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestNormFloat64Moments(t *testing.T) {
	rng := NewRNG(31)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := rng.NormFloat64()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %v", variance)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewRNG(5)
	a := r.Split()
	b := r.Split()
	if a.Uint64() == b.Uint64() {
		t.Fatal("split streams should differ")
	}
}

func TestXavierInitBounds(t *testing.T) {
	rng := NewRNG(3)
	m := New(64, 32)
	m.XavierInit(rng, 64, 32)
	limit := float32(math.Sqrt(6.0 / 96.0))
	for _, v := range m.Data {
		if v < -limit || v >= limit {
			t.Fatalf("Xavier value %v outside ±%v", v, limit)
		}
	}
	// Not all zero.
	if m.MaxAbs() == 0 {
		t.Fatal("Xavier should not be all-zero")
	}
}

func TestFillNormalStats(t *testing.T) {
	rng := NewRNG(8)
	m := New(300, 300)
	m.FillNormal(rng, 2, 0.5)
	mean := m.Sum() / float64(len(m.Data))
	if math.Abs(mean-2) > 0.02 {
		t.Fatalf("FillNormal mean %v", mean)
	}
}

// TestFillUint24IsFloat32sStream: a fill is that many Float32 calls — same
// values in the same order, same end state, a cached Box-Muller half left
// alone — at lengths on both sides of any buffer a caller might use.
func TestFillUint24IsFloat32sStream(t *testing.T) {
	for _, n := range []int{0, 1, 2, 255, 256, 257, 1000} {
		bulk, one := NewRNG(uint64(n)+5), NewRNG(uint64(n)+5)
		bulk.NormFloat64()
		one.NormFloat64()
		draws := make([]uint32, n)
		bulk.FillUint24(draws)
		for i, d := range draws {
			if want := one.Float32(); float32(d)/(1<<24) != want {
				t.Fatalf("len %d: draw %d is %v, Float32 returned %v", n, i, float32(d)/(1<<24), want)
			}
		}
		if bulk.State() != one.State() {
			t.Fatalf("len %d: the generator ended in a different state than %d Float32 calls leave", n, n)
		}
	}
}

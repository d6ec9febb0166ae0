package quant

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestBitWidthHelpers(t *testing.T) {
	cases := []struct {
		b      BitWidth
		levels uint32
	}{{B2, 3}, {B4, 15}, {B8, 255}}
	for _, c := range cases {
		if c.b.Levels() != c.levels {
			t.Fatalf("%d-bit levels %d", c.b, c.b.Levels())
		}
	}
	if !B4.Valid() || BitWidth(3).Valid() || BitWidth(0).Valid() {
		t.Fatal("Valid wrong")
	}
	if B2.PackedSize(5) != 2 || B4.PackedSize(5) != 3 || B8.PackedSize(5) != 5 {
		t.Fatal("PackedSize wrong")
	}
}

func TestRoundTripValuesWithinOneStep(t *testing.T) {
	rng := tensor.NewRNG(1)
	for _, b := range Candidates {
		h := make([]float32, 33)
		for i := range h {
			h[i] = rng.Float32()*10 - 5
		}
		dst := make([]byte, b.PackedSize(len(h)))
		meta := QuantizeRow(h, b, dst, rng)
		out := make([]float32, len(h))
		DequantizeRow(dst, meta, b, out)
		for i := range h {
			if math.Abs(float64(out[i]-h[i])) > float64(meta.Scale)+1e-6 {
				t.Fatalf("%d-bit: |dq(q(x))−x| = %v exceeds one step %v",
					b, out[i]-h[i], meta.Scale)
			}
		}
	}
}

func TestConstantRowExact(t *testing.T) {
	rng := tensor.NewRNG(2)
	h := []float32{3.5, 3.5, 3.5, 3.5}
	dst := make([]byte, B2.PackedSize(4))
	meta := QuantizeRow(h, B2, dst, rng)
	out := make([]float32, 4)
	DequantizeRow(dst, meta, B2, out)
	for _, v := range out {
		if v != 3.5 {
			t.Fatalf("constant row must round-trip exactly, got %v", v)
		}
	}
}

func TestEndpointsExact(t *testing.T) {
	// min and max of a row always land exactly on quantization levels.
	rng := tensor.NewRNG(3)
	h := []float32{-2, 0.7, 5, 1.1}
	for _, b := range Candidates {
		dst := make([]byte, b.PackedSize(len(h)))
		meta := QuantizeRow(h, b, dst, rng)
		out := make([]float32, len(h))
		DequantizeRow(dst, meta, b, out)
		if out[0] != -2 {
			t.Fatalf("%d-bit: min not exact: %v", b, out[0])
		}
		if math.Abs(float64(out[2]-5)) > 1e-6 {
			t.Fatalf("%d-bit: max not exact: %v", b, out[2])
		}
	}
}

// TestUnbiasedness verifies Theorem 1's E[dq(q(h))] = h by averaging many
// independent stochastic quantizations.
func TestUnbiasedness(t *testing.T) {
	rng := tensor.NewRNG(7)
	h := []float32{-1.3, 0.2, 0.9, 2.7, -0.4}
	const trials = 30000
	for _, b := range []BitWidth{B2, B4} {
		sums := make([]float64, len(h))
		dst := make([]byte, b.PackedSize(len(h)))
		out := make([]float32, len(h))
		var meta RowMeta
		for tr := 0; tr < trials; tr++ {
			for i := range dst {
				dst[i] = 0
			}
			meta = QuantizeRow(h, b, dst, rng)
			DequantizeRow(dst, meta, b, out)
			for i, v := range out {
				sums[i] += float64(v)
			}
		}
		for i := range h {
			mean := sums[i] / trials
			// Standard error of the mean ≈ S/sqrt(6·trials); allow 5σ.
			tol := 5 * float64(meta.Scale) / math.Sqrt(6*trials)
			if math.Abs(mean-float64(h[i])) > tol {
				t.Fatalf("%d-bit: E[dq(q)] = %v but h = %v (tol %v)", b, mean, h[i], tol)
			}
		}
	}
}

// TestVarianceBound verifies Var[dq(q(h))] ≤ D·S²/6 with empirical variance
// close to but not exceeding the bound by more than sampling noise.
func TestVarianceBound(t *testing.T) {
	rng := tensor.NewRNG(11)
	h := make([]float32, 64)
	for i := range h {
		h[i] = rng.Float32()*4 - 2
	}
	const trials = 5000
	for _, b := range []BitWidth{B2, B4} {
		dst := make([]byte, b.PackedSize(len(h)))
		out := make([]float32, len(h))
		var total float64
		var meta RowMeta
		for tr := 0; tr < trials; tr++ {
			for i := range dst {
				dst[i] = 0
			}
			meta = QuantizeRow(h, b, dst, rng)
			DequantizeRow(dst, meta, b, out)
			for i, v := range out {
				d := float64(v - h[i])
				total += d * d
			}
		}
		empirical := total / trials
		bound := RowVarianceBound(h, b)
		if empirical > bound*1.05 {
			t.Fatalf("%d-bit: empirical variance %v exceeds Theorem 1 bound %v", b, empirical, bound)
		}
		// The bound is achieved when fractional parts are uniform; the
		// empirical value should not be absurdly below it either.
		if empirical < bound*0.2 {
			t.Logf("%d-bit: variance %v far below bound %v (OK, bound is worst-case)", b, empirical, bound)
		}
	}
}

func TestQuantizeRowsStreamRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(5)
	x := tensor.New(10, 17)
	x.FillUniform(rng, -3, 3)
	for _, b := range Candidates {
		idx := []int32{2, 5, 9}
		stream := QuantizeRows(x, idx, b, rng)
		if len(stream) != WireSize(len(idx), x.Cols, b) {
			t.Fatalf("%d-bit stream size %d != WireSize %d", b, len(stream), WireSize(len(idx), x.Cols, b))
		}
		dst := tensor.New(10, 17)
		if err := DequantizeRows(stream, dst, idx, len(idx), b); err != nil {
			t.Fatal(err)
		}
		for _, r := range idx {
			for j := 0; j < x.Cols; j++ {
				diff := math.Abs(float64(dst.At(int(r), j) - x.At(int(r), j)))
				mn, mx := tensor.MinMax(x.Row(int(r)))
				step := float64(mx-mn) / float64(b.Levels())
				if diff > step+1e-6 {
					t.Fatalf("%d-bit row %d col %d: err %v > step %v", b, r, j, diff, step)
				}
			}
		}
	}
}

func TestDequantizeRowsSizeMismatch(t *testing.T) {
	dst := tensor.New(2, 4)
	if err := DequantizeRows(make([]byte, 3), dst, nil, 2, B8); err == nil {
		t.Fatal("expected size error")
	}
}

func TestCompressionRatio(t *testing.T) {
	// Large rows: 2-bit ≈ 16×, 4-bit ≈ 8×, 8-bit ≈ 4× (minus header).
	ratio := func(b BitWidth) float64 {
		return float64(4*100*1024) / float64(WireSize(100, 1024, b))
	}
	r := ratio(B2)
	if r < 12 || r > 16 {
		t.Fatalf("2-bit ratio %v", r)
	}
	r = ratio(B8)
	if r < 3.5 || r > 4 {
		t.Fatalf("8-bit ratio %v", r)
	}
}

func TestStochasticRoundingIsActuallyStochastic(t *testing.T) {
	rng := tensor.NewRNG(13)
	// With range [0,1] and 3 levels (step 1/3), 0.5 lies strictly between
	// levels 1 and 2 and must round both ways.
	h := []float32{0, 0.5, 0.8, 1}
	dst := make([]byte, B2.PackedSize(4))
	out := make([]float32, 4)
	seen := map[float32]bool{}
	for tr := 0; tr < 200; tr++ {
		for i := range dst {
			dst[i] = 0
		}
		meta := QuantizeRow(h, B2, dst, rng)
		DequantizeRow(dst, meta, B2, out)
		seen[out[1]] = true
	}
	if len(seen) < 2 {
		t.Fatal("interior value should round both ways across 200 trials")
	}
}

func TestQuantizeRowsPropertyNoNaN(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		rows, cols := 1+rng.Intn(6), 1+rng.Intn(40)
		x := tensor.New(rows, cols)
		x.FillNormal(rng, 0, 5)
		for _, b := range Candidates {
			stream := QuantizeRows(x, nil, b, rng)
			dst := tensor.New(rows, cols)
			if err := DequantizeRows(stream, dst, nil, rows, b); err != nil {
				return false
			}
			for _, v := range dst.Data {
				if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

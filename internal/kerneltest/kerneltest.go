// Package kerneltest is the one differential harness behind the tests of the
// assembly kernels in internal/tensor, internal/quant and internal/nn
// (LayerNorm, ReLU and Dropout's passes, nn's kernel_test.go): a kernel's
// vector path and the Go loop it stands in for must write the same bits, and
// nothing else.
package kerneltest

import (
	"math"
	"testing"

	"repro/internal/cpu"
)

// Same reports whether a and b are the same value bit for bit, or both NaN:
// when two operands of an x86 multiply or add are NaN the result is the
// first, and which comes first in compiled Go code is the register
// allocator's choice (it differs under -race), so a NaN equals any NaN.
func Same[T float32 | uint8](a, b T) bool {
	return bitsOf(a) == bitsOf(b) || a != a && b != b
}

// portableFuses is whether the compiler turns a float32 multiply and add in
// Go code into one fused operation (GOAMD64=v3, arm64, ...). The assembly
// never fuses, so on such a build a kernel and its Go loop legitimately
// differ: (1+2⁻¹²)² rounds to 1+2⁻¹¹ and the sum below is 0, while a fused
// multiply-add keeps the 2⁻²⁴.
var portableFuses = mulAdd(math.Float32frombits(0x3F800800), math.Float32frombits(0x3F800800), -math.Float32frombits(0x3F801000)) != 0

//go:noinline
func mulAdd(x, y, z float32) float32 { return x*y + z }

// SkipIfPortableFuses skips t on a build whose Go code fuses multiply-adds:
// there the kernels, unfused by contract, are not its Go loops' bits.
func SkipIfPortableFuses(t testing.TB) {
	t.Helper()
	if portableFuses {
		t.Skip("this build fuses multiply-adds in Go code; the assembly is unfused by contract")
	}
}

// Widths are the row lengths the differential tests sweep: every split into
// vectors and a tail up to 130, then yelp-sim's and reddit-sim's feature
// widths.
func Widths() []int {
	w := make([]int, 0, 132)
	for n := 1; n <= 130; n++ {
		w = append(w, n)
	}
	return append(w, 300, 602)
}

// Differential runs kernel twice, as the host would run it and with cpu.AVX2
// cleared so that the portable Go loop runs, each time on a fresh copy of
// dst that starts off elements into a sentinel-filled buffer and has no
// spare capacity. It fails t unless the two results are Same element for
// element, every sentinel around them is intact, and every readOnly slice —
// the inputs kernel captures — still holds the bits it started with. On a
// host without AVX2, and under the noasm tag, both runs are the Go loop.
func Differential[T float32 | uint8](t testing.TB, what string, dst []T, off int, kernel func(dst []T), readOnly ...[]float32) {
	t.Helper()
	const guard = 16
	var sentinel T
	switch s := any(&sentinel).(type) {
	case *float32:
		*s = math.Float32frombits(0xDEADBEEF)
	case *uint8:
		*s = 0xC3
	}
	inputs := make([][]float32, len(readOnly))
	for i, in := range readOnly {
		inputs[i] = append([]float32(nil), in...)
	}
	run := func(path string) []T {
		buf := make([]T, off+len(dst)+guard)
		for i := range buf {
			buf[i] = sentinel
		}
		out := buf[off : off+len(dst) : off+len(dst)]
		copy(out, dst)
		kernel(out)
		for i, v := range buf {
			if (i < off || i >= off+len(dst)) && !Same(v, sentinel) {
				t.Fatalf("%s, %s path: element %d of the buffer, outside dst[%d:%d], was written", what, path, i, off, off+len(dst))
			}
		}
		for i, in := range readOnly {
			for j := range in {
				if bitsOf(in[j]) != bitsOf(inputs[i][j]) {
					t.Fatalf("%s, %s path: input %d was written at [%d]", what, path, i, j)
				}
			}
		}
		return out
	}
	got := run("host")
	defer func(have bool) { cpu.AVX2 = have }(cpu.AVX2)
	cpu.AVX2 = false
	want := run("portable")
	for i := range want {
		if !Same(got[i], want[i]) {
			t.Fatalf("%s: [%d] = %v, portable loop %v (as bits %#x, %#x)", what, i, got[i], want[i], bitsOf(got[i]), bitsOf(want[i]))
		}
	}
}

func bitsOf[T float32 | uint8](v T) uint32 {
	if f, ok := any(v).(float32); ok {
		return math.Float32bits(f)
	}
	return uint32(any(v).(uint8))
}

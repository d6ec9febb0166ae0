//go:build !noasm

package quant

import "math/bits"

// The AVX2 kernels. Each runs only where cpu.Vector said so, and is held to
// the Go loop it stands in for, as bits, by the differential tests.

// roundAVX2 is gen.round's vector kernel for len(h) elements, a multiple of
// 8 in [8, 64]. Every element whose t = (h[i]-mn)*inv is not ≤ 0 takes one
// xoshiro256** step of s, in element order, and every element becomes the
// code min(⌊t⌋ + (u < t-⌊t⌋), 2^b-1), u its draw over 2^24 (none for an
// element that does not draw), packed into dst at width b as pack packs
// them; len(dst) is len(h)·b/8. draws is scratch. ok is false, with nothing
// drawn and s untouched, when some t is NaN or outside [0, 2^24) — every t
// of a row whose 1/scale overflowed is — and the scalar kernel must round
// the chunk; dst is then garbage.
//
//go:noescape
func roundAVX2(dst []byte, h []float32, mn, inv float32, b int, s *[4]uint64, draws *[codeChunk]uint64) (ok bool)

// expand[m] holds, for a group of eight elements whose draw mask is m, the
// index of each element's draw among the group's draws: lane i of a set bit
// i gets the number of set bits below it, a lane that does not draw gets 0.
// roundAVX2 widens a row to the VPERMD that spreads a group's dense draws to
// their lanes.
var expand = func() (t [256][8]uint8) {
	for m := range t {
		for i := range 8 {
			if m>>i&1 != 0 {
				t[m][i] = uint8(bits.OnesCount8(uint8(m) & (1<<i - 1)))
			}
		}
	}
	return t
}()

// dequantizeAVX2 decodes len(out) codes, a positive multiple of 8, packed at
// width b in src: out[i] = float32(code)*scale + zero, multiply and add
// unfused, or out[i] += that when add is set.
//
//go:noescape
func dequantizeAVX2(out []float32, src []byte, scale, zero float32, b int, add bool)

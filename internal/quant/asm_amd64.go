//go:build !noasm

package quant

// The AVX2 kernels. Each runs only where cpu.Vector said so, and is held to
// the Go loop it stands in for, as bits, by the differential tests.

// roundMaskAVX2 stores t[i] = (h[i]-mn)*inv for every element and returns
// the bit mask of the elements that draw, !(t <= 0), bit i for h[i]. ok is
// false when some t is NaN, negative or ≥ 2^24 — values the vector finish
// does not round the way the scalar kernel does. len(h) must be a multiple
// of 8 in [8, 64].
//
//go:noescape
func roundMaskAVX2(t *[codeChunk]float32, h []float32, mn, inv float32) (draw uint64, ok bool)

// roundFinishAVX2 turns the first 8·len(dst)/b elements of t — what
// roundMaskAVX2 left there, having said ok — into the codes
// min(⌊t⌋ + (u < t-⌊t⌋), 2^b-1) with u = draws[i]/2^24, and writes them to
// dst packed at width b as pack packs them. len(dst) must be a positive
// multiple of b, every draws[i] below 2^24.
//
//go:noescape
func roundFinishAVX2(dst []byte, t *[codeChunk]float32, draws *[codeChunk]uint32, b int)

// dequantizeAVX2 decodes len(out) codes, a positive multiple of 8, packed at
// width b in src: out[i] = float32(code)*scale + zero, multiply and add
// unfused, or out[i] += that when add is set.
//
//go:noescape
func dequantizeAVX2(out []float32, src []byte, scale, zero float32, b int, add bool)

//go:build !noasm

package quant

// roundMaskAVX2 computes t = (h[i]-mn)*inv for every element and returns the
// bit mask of the elements that draw, !(t <= 0), bit i for h[i]. ok is false
// when some t is NaN, negative or ≥ 2^24 — values the vector finish does not
// round the way the scalar kernel does. len(h) must be a multiple of 8 in
// [8, 64].
//
//go:noescape
func roundMaskAVX2(h []float32, mn, inv float32) (draw uint64, ok bool)

// roundFinishAVX2 writes codes[i] = min(⌊t⌋ + (u < t-⌊t⌋), maxCode) with t
// recomputed as in roundMaskAVX2 and u = draws[i]/2^24. It needs what
// roundMaskAVX2 needs, ok from it, len(codes) == len(h), and every draws[i]
// below 2^24.
//
//go:noescape
func roundFinishAVX2(codes []uint8, h []float32, draws *[codeChunk]uint32, mn, inv float32, maxCode uint32)

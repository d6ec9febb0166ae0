package tensor

// dotColsAVX2 computes out[j] = dot(a, column j of bt) for every j, where bt
// is len(a) rows of len(out) floats and len(out) is a positive multiple of 8,
// on a host where hasAVX2 is true. Eight columns share a vector; within a
// lane the operations are dot's, in dot's order: the four products of a group
// of four k added left to right, that sum added to the accumulator, then the
// leftover k one at a time — VMULPS then VADDPS, never fused.
//
//go:noescape
func dotColsAVX2(out, a, bt []float32)

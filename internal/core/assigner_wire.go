package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/quant"
)

// Hand-rolled wire format for the assignment sideband (traceMsg up to the
// master, widthMsg back). It replaced encoding/gob: the reflection-driven
// decoder allocated thousands of objects per assignment round, dwarfing
// the training loop's entire allocation budget. The format is explicit
// little-endian length-prefixed nesting:
//
//	f64 slice:   [u32 len] len × float64
//	f64 grid:    [u32 len] len × f64 slice
//	f32 slice:   [u32 len] len × float32
//	f32 cube:    [u32 len] len × ([u32 len] len × f32 slice)
//	width slice: [u32 len] ⌈len/4⌉ bytes of 2-bit codes, slot j in bits
//	             2(j mod 4) of byte j/4; codes 0–3 are B2, B4, B8, B32 and
//	             the padding bits of the last byte are zero
//	width cube:  [u32 len] len × ([u32 len] len × width slice)
//	traceMsg:    [u32 rank] RecvAlpha f64 grid · forward, backward range
//	             f32 cubes (max−min per row; the master squares it)
//	widthMsg:    forward Send · Recv, backward Send · Recv width cubes
//
// Every cube of a direction starts at its first exchanged layer: the
// backward cubes carry layers 1…L−1, since layer 0 has no backward exchange
// (direction.firstLayer). Decoders validate every length against the
// remaining bytes and reject trailing bytes and non-zero padding, so a
// corrupted stream errors instead of panicking or over-allocating, and a
// payload that decodes re-encodes to itself. Encoders size their buffer from
// the message first (the *Size functions mirror the append* ones), so a
// payload is one allocation, not a slice grown a doubling at a time on every
// assignment epoch.

// codeWidths maps a 2-bit width code to its width: every code is Valid.
var codeWidths = [4]quant.BitWidth{quant.B2, quant.B4, quant.B8, quant.B32}

func widthCode(w quant.BitWidth) byte {
	for c, cw := range codeWidths {
		if cw == w {
			return byte(c)
		}
	}
	panic(fmt.Sprintf("core: width %d has no wire code", w))
}

// packedWidthBytes is the size of n 2-bit width codes.
func packedWidthBytes(n int) int { return (n + 3) / 4 }

// exchanged returns the layers of a per-layer cube that direction dir ships:
// those from dir.firstLayer() on.
func exchanged[T any](c []T, dir direction) []T {
	return c[min(len(c), dir.firstLayer()):]
}

func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func f64GridSize(g [][]float64) int {
	size := 4
	for _, s := range g {
		size += 4 + 8*len(s)
	}
	return size
}

func f32CubeSize(c [][][]float32) int {
	size := 4
	for _, g := range c {
		size += 4
		for _, s := range g {
			size += 4 + 4*len(s)
		}
	}
	return size
}

func widthCubeSize(c [][][]quant.BitWidth) int {
	size := 4
	for _, g := range c {
		size += 4
		for _, ws := range g {
			size += 4 + packedWidthBytes(len(ws))
		}
	}
	return size
}

func appendF64Grid(b []byte, g [][]float64) []byte {
	b = appendU32(b, uint32(len(g)))
	for _, s := range g {
		b = appendF64s(appendU32(b, uint32(len(s))), s)
	}
	return b
}

func appendF32Cube(b []byte, c [][][]float32) []byte {
	b = appendU32(b, uint32(len(c)))
	for _, g := range c {
		b = appendU32(b, uint32(len(g)))
		for _, s := range g {
			b = appendF32s(appendU32(b, uint32(len(s))), s)
		}
	}
	return b
}

func appendWidthSlice(b []byte, ws []quant.BitWidth) []byte {
	b = appendU32(b, uint32(len(ws)))
	for lo := 0; lo < len(ws); lo += 4 {
		var packed byte
		for j, w := range ws[lo:min(lo+4, len(ws))] {
			packed |= widthCode(w) << (2 * j)
		}
		b = append(b, packed)
	}
	return b
}

func appendWidthCube(b []byte, c [][][]quant.BitWidth) []byte {
	b = appendU32(b, uint32(len(c)))
	for _, g := range c {
		b = appendU32(b, uint32(len(g)))
		for _, ws := range g {
			b = appendWidthSlice(b, ws)
		}
	}
	return b
}

// wireReader is a latching-error cursor over one assignment payload.
type wireReader struct {
	b   []byte
	off int
	err error
}

func (r *wireReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("core: assignment payload truncated at %s (offset %d of %d)", what, r.off, len(r.b))
	}
}

// length reads a u32 count, validating that count×elemSize bytes remain.
func (r *wireReader) length(elemSize int, what string) int {
	if r.err != nil {
		return 0
	}
	if r.off+4 > len(r.b) {
		r.fail(what)
		return 0
	}
	n := int(binary.LittleEndian.Uint32(r.b[r.off:]))
	r.off += 4
	if n < 0 || n*elemSize > len(r.b)-r.off {
		r.fail(what)
		return 0
	}
	return n
}

// end fails the read unless every byte of the payload was consumed.
func (r *wireReader) end() error {
	if r.err == nil && r.off != len(r.b) {
		r.err = fmt.Errorf("core: assignment payload has %d trailing bytes", len(r.b)-r.off)
	}
	return r.err
}

func (r *wireReader) f64Grid(what string) [][]float64 {
	n := r.length(4, what)
	if r.err != nil {
		return nil
	}
	out := make([][]float64, n)
	for i := range out {
		m := r.length(8, what)
		if r.err != nil {
			return nil
		}
		if m == 0 {
			continue
		}
		out[i] = make([]float64, m)
		readF64s(out[i], r.b[r.off:], false)
		r.off += 8 * m
	}
	return out
}

// f32Cube reads a cube into layers skip… of a per-layer cube.
func (r *wireReader) f32Cube(skip int, what string) [][][]float32 {
	n := r.length(4, what)
	if r.err != nil {
		return nil
	}
	out := make([][][]float32, skip+n)
	for i := skip; i < len(out); i++ {
		m := r.length(4, what)
		if r.err != nil {
			return nil
		}
		g := make([][]float32, m)
		for j := range g {
			k := r.length(4, what)
			if r.err != nil {
				return nil
			}
			if k == 0 {
				continue
			}
			g[j] = make([]float32, k)
			readF32s(g[j], r.b[r.off:], false)
			r.off += 4 * k
		}
		out[i] = g
	}
	return out
}

func (r *wireReader) widthSlice(what string) []quant.BitWidth {
	n := r.length(0, what)
	if r.err == nil && packedWidthBytes(n) > len(r.b)-r.off {
		r.fail(what)
	}
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]quant.BitWidth, n)
	for j := range out {
		out[j] = codeWidths[r.b[r.off+j/4]>>(2*(j%4))&3]
	}
	r.off += packedWidthBytes(n)
	if pad := n % 4; pad != 0 && r.b[r.off-1]>>(2*pad) != 0 {
		r.err = fmt.Errorf("core: assignment payload has non-zero padding at %s (offset %d)", what, r.off-1)
		return nil
	}
	return out
}

// widthCube reads a cube into layers skip… of a per-layer cube.
func (r *wireReader) widthCube(skip int, what string) [][][]quant.BitWidth {
	n := r.length(4, what)
	if r.err != nil {
		return nil
	}
	out := make([][][]quant.BitWidth, skip+n)
	for i := skip; i < len(out); i++ {
		m := r.length(4, what)
		if r.err != nil {
			return nil
		}
		g := make([][]quant.BitWidth, m)
		for j := range g {
			g[j] = r.widthSlice(what)
		}
		out[i] = g
	}
	return out
}

func encodeTrace(m *traceMsg) []byte {
	size := 4 + f64GridSize(m.RecvAlpha)
	for _, dir := range directions {
		size += f32CubeSize(exchanged(m.Range[dir], dir))
	}
	b := appendU32(make([]byte, 0, size), uint32(m.Rank))
	b = appendF64Grid(b, m.RecvAlpha)
	for _, dir := range directions {
		b = appendF32Cube(b, exchanged(m.Range[dir], dir))
	}
	return b
}

func decodeTrace(b []byte, m *traceMsg) error {
	r := &wireReader{b: b}
	if r.off+4 > len(r.b) {
		r.fail("rank")
	} else {
		m.Rank = int(binary.LittleEndian.Uint32(r.b))
		r.off = 4
	}
	m.RecvAlpha = r.f64Grid("RecvAlpha")
	for _, dir := range directions {
		m.Range[dir] = r.f32Cube(dir.firstLayer(), "Range")
	}
	return r.end()
}

func encodeWidths(m *widthMsg) []byte {
	size := 0
	for _, dir := range directions {
		size += widthCubeSize(exchanged(m.Send[dir], dir)) + widthCubeSize(exchanged(m.Recv[dir], dir))
	}
	b := make([]byte, 0, size)
	for _, dir := range directions {
		b = appendWidthCube(b, exchanged(m.Send[dir], dir))
		b = appendWidthCube(b, exchanged(m.Recv[dir], dir))
	}
	return b
}

func decodeWidths(b []byte, m *widthMsg) error {
	r := &wireReader{b: b}
	for _, dir := range directions {
		m.Send[dir] = r.widthCube(dir.firstLayer(), "Send")
		m.Recv[dir] = r.widthCube(dir.firstLayer(), "Recv")
	}
	return r.end()
}

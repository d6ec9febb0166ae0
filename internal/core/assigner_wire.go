package core

import (
	"encoding/binary"
	"fmt"
	"math"

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
//	f64 cube:    [u32 len] len × f64 grid
//	width slice: [u32 len] len × 1 byte
//	traceMsg:    [u32 rank] RecvAlpha grid · forward, backward Range2 cubes
//	widthMsg:    forward Send · Recv, backward Send · Recv width cubes
//
// Decoders validate every length against the remaining bytes, so a
// corrupted stream errors instead of panicking or over-allocating.
// Encoders size their buffer from the message first (the *Size functions
// mirror the append* ones), so a payload is one allocation, not a slice
// grown a doubling at a time on every assignment epoch.

func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func appendF64Slice(b []byte, xs []float64) []byte {
	b = appendU32(b, uint32(len(xs)))
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

func f64GridSize(g [][]float64) int {
	size := 4
	for _, s := range g {
		size += 4 + 8*len(s)
	}
	return size
}

func f64CubeSize(c [][][]float64) int {
	size := 4
	for _, g := range c {
		size += f64GridSize(g)
	}
	return size
}

func widthCubeSize(c [][][]quant.BitWidth) int {
	size := 4
	for _, g := range c {
		size += 4
		for _, ws := range g {
			size += 4 + len(ws)
		}
	}
	return size
}

func appendF64Grid(b []byte, g [][]float64) []byte {
	b = appendU32(b, uint32(len(g)))
	for _, s := range g {
		b = appendF64Slice(b, s)
	}
	return b
}

func appendF64Cube(b []byte, c [][][]float64) []byte {
	b = appendU32(b, uint32(len(c)))
	for _, g := range c {
		b = appendF64Grid(b, g)
	}
	return b
}

func appendWidthSlice(b []byte, ws []quant.BitWidth) []byte {
	b = appendU32(b, uint32(len(ws)))
	for _, w := range ws {
		b = append(b, byte(w))
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

func (r *wireReader) f64Slice(what string) []float64 {
	n := r.length(8, what)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
		r.off += 8
	}
	return out
}

func (r *wireReader) f64Grid(what string) [][]float64 {
	n := r.length(4, what)
	if r.err != nil {
		return nil
	}
	out := make([][]float64, n)
	for i := range out {
		out[i] = r.f64Slice(what)
	}
	return out
}

func (r *wireReader) f64Cube(what string) [][][]float64 {
	n := r.length(4, what)
	if r.err != nil {
		return nil
	}
	out := make([][][]float64, n)
	for i := range out {
		out[i] = r.f64Grid(what)
	}
	return out
}

func (r *wireReader) widthSlice(what string) []quant.BitWidth {
	n := r.length(1, what)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]quant.BitWidth, n)
	for i := range out {
		out[i] = quant.BitWidth(r.b[r.off])
		r.off++
	}
	return out
}

func (r *wireReader) widthCube(what string) [][][]quant.BitWidth {
	n := r.length(4, what)
	if r.err != nil {
		return nil
	}
	out := make([][][]quant.BitWidth, n)
	for i := range out {
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
	for _, cube := range m.Range2 {
		size += f64CubeSize(cube)
	}
	b := appendU32(make([]byte, 0, size), uint32(m.Rank))
	b = appendF64Grid(b, m.RecvAlpha)
	for _, cube := range m.Range2 {
		b = appendF64Cube(b, cube)
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
		m.Range2[dir] = r.f64Cube("Range2")
	}
	return r.err
}

func encodeWidths(m *widthMsg) []byte {
	size := 0
	for _, dir := range directions {
		size += widthCubeSize(m.Send[dir]) + widthCubeSize(m.Recv[dir])
	}
	b := make([]byte, 0, size)
	for _, dir := range directions {
		b = appendWidthCube(b, m.Send[dir])
		b = appendWidthCube(b, m.Recv[dir])
	}
	return b
}

func decodeWidths(b []byte, m *widthMsg) error {
	r := &wireReader{b: b}
	for _, dir := range directions {
		m.Send[dir] = r.widthCube("Send")
		m.Recv[dir] = r.widthCube("Recv")
	}
	return r.err
}

package core

import (
	"fmt"

	"repro/internal/partition"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// ---- ef-quant: uniform quantization with error feedback ----
//
// The standard competitor to adaptive assignment (EF-SGD / 1-bit-Adam
// lineage): every message is quantized at one fixed width, but the
// quantization error of each epoch is carried as a residual and added to
// the next epoch's message before quantizing, so the error telescopes
// instead of accumulating. The sender de-quantizes its own stream to
// compute the exact error the receiver sees, which keeps both ends
// consistent without extra traffic.
//
// Wire format per destination: the quant.QuantizeRows stream (per row:
// [Zero float32][Scale float32][packed codes]) at Config.UniformBits.
// The schedule is `sequential`: compression competitors are modeled as
// drop-in replacements for the fp32 exchange.

type efQuantCodec struct {
	bits quant.BitWidth
	// widths is bits repeated once per row of the longest stream a peer can
	// send: a uniform stream is the mixed stream whose widths are all equal,
	// and that is the decoder with a += form.
	widths []quant.BitWidth
	// resid[dir][l][p] carries the accumulated quantization error of the
	// rows this device sends to p at layer l in direction dir (wire order
	// dir.sent).
	resid [2][][]*tensor.Matrix
	coder efCoder
}

func newEFQuantCodec(env *CodecEnv) (MessageCodec, error) {
	if !env.Cfg.UniformBits.Packable() {
		return nil, fmt.Errorf("core: ef-quant requires a packable bit-width (2|4|8), got %d (set UniformBits)", env.Cfg.UniformBits)
	}
	lg := env.Graph()
	dims := messageDims(env.Cfg, env.InDim)
	c := &efQuantCodec{
		bits:   env.Cfg.UniformBits,
		widths: quant.UniformWidths(max(lg.NumLocal, lg.NumHalo), env.Cfg.UniformBits),
	}
	for _, dir := range directions {
		c.resid[dir] = make([][]*tensor.Matrix, env.Cfg.Layers)
		for l := range c.resid[dir] {
			c.resid[dir][l] = make([]*tensor.Matrix, lg.Parts)
			// Layer 0 has no backward exchange (the trainer returns before
			// the codec is called), so its residuals would be dead weight.
			if dir == backward && l == 0 {
				continue
			}
			for p, rows := range dir.sent(lg) {
				if len(rows) > 0 {
					c.resid[dir][l][p] = tensor.New(len(rows), dims[l])
				}
			}
		}
	}
	return c, nil
}

func (c *efQuantCodec) Name() string { return CodecEFQuant }

// Stateful: the residuals are genuine cross-epoch state — replacing an
// instance mid-run would silently drop the carried error.
func (c *efQuantCodec) Stateful() bool { return true }

// encodeEF quantizes rows idx of x plus the carried residual, then
// updates the residual to the new quantization error (corrected minus
// the receiver's reconstruction). The returned stream comes from the
// arena; ownership passes to the transport.
func (c *efQuantCodec) encodeEF(a *Arena, x *tensor.Matrix, idx []int32, resid *tensor.Matrix, rng *tensor.RNG) ([]byte, error) {
	corrected := a.GetMat(len(idx), x.Cols)
	gatherRowsInto(corrected, x, idx)
	corrected.AddInPlace(resid)
	stream := quant.AppendQuantizedRows(
		a.GetBuf(quant.WireSize(corrected.Rows, corrected.Cols, c.bits)),
		corrected, nil, c.bits, rng)
	recon := a.GetMat(corrected.Rows, corrected.Cols)
	if err := quant.DequantizeRows(stream, recon, nil, recon.Rows, c.bits); err != nil {
		return nil, err
	}
	for i := range resid.Data {
		resid.Data[i] = corrected.Data[i] - recon.Data[i]
	}
	a.PutMat(recon)
	a.PutMat(corrected)
	return stream, nil
}

// efCoder is one layer direction's rowCoder: the codec's width plus that
// direction's per-peer residuals.
type efCoder struct {
	codec *efQuantCodec
	resid []*tensor.Matrix
}

func (f *efCoder) encode(e *ExchangeEnv, p int, x *tensor.Matrix, idx []int32) ([]byte, error) {
	return f.codec.encodeEF(e.Scratch, x, idx, f.resid[p], e.Dev.Rand())
}

func (f *efCoder) decode(_ *ExchangeEnv, _ int, buf []byte, dst *tensor.Matrix, idx []int32, add bool) error {
	if err := dequantizeMixed(buf, dst, idx, f.codec.widths[:len(idx)], add); err != nil {
		return fmt.Errorf("ef-quant: %w", err)
	}
	return nil
}

// passes: send-side kernels run twice over every element — quantize, then
// the error-feedback self-dequantization that measures the residual.
func (*efCoder) passes() (int, int) { return 2, 1 }

func (c *efQuantCodec) Forward(env *ExchangeEnv, epoch, l int, h, xFull *tensor.Matrix) error {
	return c.run(env, forward, l, h, xFull)
}

func (c *efQuantCodec) Backward(env *ExchangeEnv, epoch, l int, dxFull, dxLocal *tensor.Matrix) error {
	return c.run(env, backward, l, dxFull, dxLocal)
}

func (c *efQuantCodec) run(env *ExchangeEnv, dir direction, l int, src, dst *tensor.Matrix) error {
	c.coder = efCoder{codec: c, resid: c.resid[dir][l]}
	return env.stage(&c.coder, sequential, dir, l, src, dst)
}

func (c *efQuantCodec) EpochEnd(*ExchangeEnv, int) error { return nil }

// CheckpointState/RestoreCheckpoint make ef-quant crash-recoverable: the
// residuals are the only cross-epoch state, so a deep copy of their data, in
// the live state's [direction][layer][peer] layout, suffices.
func (c *efQuantCodec) CheckpointState() any {
	var saved [2][][][]float32
	for dir, grid := range c.resid {
		saved[dir] = make([][][]float32, len(grid))
		for l, row := range grid {
			saved[dir][l] = make([][]float32, len(row))
			for p, m := range row {
				if m != nil {
					saved[dir][l][p] = append([]float32(nil), m.Data...)
				}
			}
		}
	}
	return saved
}

func (c *efQuantCodec) RestoreCheckpoint(state any) {
	saved := state.([2][][][]float32)
	for dir, grid := range c.resid {
		for l, row := range grid {
			for p, m := range row {
				if m != nil {
					copy(m.Data, saved[dir][l][p])
				}
			}
		}
	}
}

// ForwardErrorBound: at epoch 0 the residual is zero, so the decode error
// is plain uniform quantization — one level S = (mx−mn)/(2^b−1).
func (c *efQuantCodec) ForwardErrorBound(mn, mx float32, _ int) float64 {
	return float64(mx-mn) / float64(c.bits.Levels())
}

func (c *efQuantCodec) ForwardWireSizes(lg *partition.LocalGraph, dim int) []int {
	out := make([]int, lg.Parts)
	for q := range out {
		out[q] = quant.WireSize(len(lg.SendTo[q]), dim, c.bits)
	}
	return out
}

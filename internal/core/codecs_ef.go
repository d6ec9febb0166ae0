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
	// fwdResid[l][q] carries the accumulated quantization error of the
	// rows this device sends to q at layer l (wire order SendTo[q]);
	// bwdResid[l][p] covers the backward sends (wire order RecvFrom[p]).
	fwdResid [][]*tensor.Matrix
	bwdResid [][]*tensor.Matrix
	coder    efCoder
}

func newEFQuantCodec(env *CodecEnv) (MessageCodec, error) {
	if !env.Cfg.UniformBits.Packable() {
		return nil, fmt.Errorf("core: ef-quant requires a packable bit-width (2|4|8), got %d (set UniformBits)", env.Cfg.UniformBits)
	}
	lg := env.Graph()
	dims := messageDims(env.Cfg, env.InDim)
	c := &efQuantCodec{
		bits:     env.Cfg.UniformBits,
		fwdResid: make([][]*tensor.Matrix, env.Cfg.Layers),
		bwdResid: make([][]*tensor.Matrix, env.Cfg.Layers),
	}
	for l := 0; l < env.Cfg.Layers; l++ {
		c.fwdResid[l] = make([]*tensor.Matrix, lg.Parts)
		c.bwdResid[l] = make([]*tensor.Matrix, lg.Parts)
		for q := 0; q < lg.Parts; q++ {
			if n := len(lg.SendTo[q]); n > 0 {
				c.fwdResid[l][q] = tensor.New(n, dims[l])
			}
			// Layer 0 has no backward exchange (the trainer returns before
			// the codec is called), so its residuals would be dead weight.
			if n := len(lg.RecvFrom[q]); n > 0 && l > 0 {
				c.bwdResid[l][q] = tensor.New(n, dims[l])
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

func (f *efCoder) decode(e *ExchangeEnv, _ int, buf []byte, dst *tensor.Matrix, idx []int32, add bool) error {
	var err error
	if add {
		tmp := e.Scratch.GetMat(len(idx), dst.Cols)
		if err = quant.DequantizeRows(buf, tmp, nil, tmp.Rows, f.codec.bits); err == nil {
			scatterAddRows32(dst, idx, tmp)
		}
		e.Scratch.PutMat(tmp)
	} else {
		err = quant.DequantizeRows(buf, dst, idx, len(idx), f.codec.bits)
	}
	if err != nil {
		return fmt.Errorf("ef-quant: %w", err)
	}
	return nil
}

// passes: send-side kernels run twice over every element — quantize, then
// the error-feedback self-dequantization that measures the residual.
func (*efCoder) passes() (int, int) { return 2, 1 }

func (c *efQuantCodec) Forward(env *ExchangeEnv, epoch, l int, h, xFull *tensor.Matrix) error {
	c.coder = efCoder{codec: c, resid: c.fwdResid[l]}
	return env.stage(&c.coder, sequential, true, l, h, xFull)
}

func (c *efQuantCodec) Backward(env *ExchangeEnv, epoch, l int, dxFull, dxLocal *tensor.Matrix) error {
	c.coder = efCoder{codec: c, resid: c.bwdResid[l]}
	return env.stage(&c.coder, sequential, false, l, dxFull, dxLocal)
}

func (c *efQuantCodec) EpochEnd(*ExchangeEnv, int) error { return nil }

// efCheckpoint is a deep copy of the carried residuals, keyed by the same
// [layer][peer] layout as the live state.
type efCheckpoint struct {
	fwd, bwd [][][]float32
}

func copyResid(resid [][]*tensor.Matrix) [][][]float32 {
	out := make([][][]float32, len(resid))
	for l, row := range resid {
		out[l] = make([][]float32, len(row))
		for q, m := range row {
			if m != nil {
				out[l][q] = append([]float32(nil), m.Data...)
			}
		}
	}
	return out
}

func restoreResid(resid [][]*tensor.Matrix, saved [][][]float32) {
	for l, row := range resid {
		for q, m := range row {
			if m != nil {
				copy(m.Data, saved[l][q])
			}
		}
	}
}

// CheckpointState/RestoreCheckpoint make ef-quant crash-recoverable: the
// residuals are the only cross-epoch state, so a deep copy suffices.
func (c *efQuantCodec) CheckpointState() any {
	return &efCheckpoint{fwd: copyResid(c.fwdResid), bwd: copyResid(c.bwdResid)}
}

func (c *efQuantCodec) RestoreCheckpoint(state any) {
	cp := state.(*efCheckpoint)
	restoreResid(c.fwdResid, cp.fwd)
	restoreResid(c.bwdResid, cp.bwd)
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

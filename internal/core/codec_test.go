package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/partition"
	"repro/internal/quant"
	"repro/internal/synthetic"
	"repro/internal/tensor"
)

func TestCodecForMethodAllResolvable(t *testing.T) {
	// Every training method must map to a registered codec.
	for _, m := range Methods() {
		name, err := CodecForMethod(m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if _, err := LookupCodec(name); err != nil {
			t.Fatalf("%v → %q: %v", m, name, err)
		}
	}
	if _, err := CodecForMethod(Method(99)); err == nil {
		t.Fatal("unknown method must not map to a codec")
	}
}

func TestCodecRegistryContents(t *testing.T) {
	names := CodecNames()
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for _, want := range []string{CodecFP32, CodecUniform, CodecAdaptive, CodecSancus, CodecRandom, CodecPipeGCN} {
		if !have[want] {
			t.Fatalf("codec %q not registered (have %v)", want, names)
		}
	}
}

func TestLookupCodecUnknown(t *testing.T) {
	_, err := LookupCodec("no-such-codec")
	if err == nil {
		t.Fatal("unknown codec must error")
	}
	if !strings.Contains(err.Error(), "no-such-codec") || !strings.Contains(err.Error(), CodecFP32) {
		t.Fatalf("error should name the codec and list known ones: %v", err)
	}
}

func TestTransportRegistry(t *testing.T) {
	if _, err := LookupTransport(TransportInprocess); err != nil {
		t.Fatalf("default transport missing: %v", err)
	}
	if _, err := LookupTransport("carrier-pigeon"); err == nil {
		t.Fatal("unknown transport must error")
	}
	found := false
	for _, n := range TransportNames() {
		if n == TransportInprocess {
			found = true
		}
	}
	if !found {
		t.Fatalf("TransportNames missing %q: %v", TransportInprocess, TransportNames())
	}
}

func TestParseMethodRoundTrip(t *testing.T) {
	for _, m := range Methods() {
		got, err := ParseMethod(m.String())
		if err != nil {
			t.Fatalf("ParseMethod(%q): %v", m.String(), err)
		}
		if got != m {
			t.Fatalf("ParseMethod(%q) = %v, want %v", m.String(), got, m)
		}
	}
	// CLI short forms and case-insensitivity.
	for s, want := range map[string]Method{
		"uniform": AdaQPUniform, "random": AdaQPRandom,
		"VANILLA": Vanilla, "AdAqP": AdaQP, "Sancus": SANCUS, "PipeGCN": PipeGCN,
	} {
		got, err := ParseMethod(s)
		if err != nil {
			t.Fatalf("ParseMethod(%q): %v", s, err)
		}
		if got != want {
			t.Fatalf("ParseMethod(%q) = %v, want %v", s, got, want)
		}
	}
	if _, err := ParseMethod("quantum"); err == nil {
		t.Fatal("unknown method string must error")
	}
}

func TestParseModelKindRoundTrip(t *testing.T) {
	for _, k := range []ModelKind{GCN, GraphSAGE} {
		got, err := ParseModelKind(k.String())
		if err != nil {
			t.Fatalf("ParseModelKind(%q): %v", k.String(), err)
		}
		if got != k {
			t.Fatalf("ParseModelKind(%q) = %v, want %v", k.String(), got, k)
		}
	}
	if got, err := ParseModelKind("sage"); err != nil || got != GraphSAGE {
		t.Fatalf("ParseModelKind(sage) = %v, %v", got, err)
	}
	if _, err := ParseModelKind("transformer"); err == nil {
		t.Fatal("unknown model string must error")
	}
}

// TestCodecForwardRoundTripTable drives every registered codec through a
// single epoch-0 forward exchange at each boundary bit-width and over an
// all-zero tensor, asserting the decoded halo rows stay within the
// codec's declared error bound (exactly, for codecs declaring no loss).
// ef-quant is the one codec that rejects the 32-bit passthrough — its
// error-feedback residual needs a packed stream — so that combination
// expects a construction error instead.
func TestCodecForwardRoundTripTable(t *testing.T) {
	ds := synthetic.MustLoad("tiny", synthetic.Scale(1))
	dep := Deploy(ds, 3, GCN, partition.Block)
	zero := func(_, _, _ int) float32 { return 0 }
	cases := []struct {
		label string
		fill  func(rank, row, col int) float32
	}{
		{"linear", probeValue}, // the conformance suite's probe pattern
		{"all-zero", zero},
	}
	for _, name := range CodecNames() {
		f, err := LookupCodec(name)
		if err != nil {
			t.Fatal(err)
		}
		// Only uniform and ef-quant consume UniformBits; for the rest one
		// width covers the exchange, so skip the repeated runs.
		widths := []quant.BitWidth{quant.B2, quant.B4, quant.B8, quant.B32}
		if name != CodecUniform && name != CodecEFQuant {
			widths = widths[:1]
		}
		for _, bits := range widths {
			for _, tc := range cases {
				t.Run(fmt.Sprintf("%s/b%d/%s", name, bits, tc.label), func(t *testing.T) {
					cfg := codecConformConfig()
					cfg.UniformBits = bits
					if err := cfg.validate(); err != nil {
						t.Fatal(err)
					}
					if name == CodecEFQuant && bits == quant.B32 {
						if _, err := f(&CodecEnv{Cfg: &cfg, Locals: dep.Locals, Rank: 0, InDim: 8, Shared: &RunShared{}}); err == nil {
							t.Fatal("ef-quant must reject the 32-bit passthrough")
						}
						return
					}
					col := &vioCollector{}
					codecExchangeCheck(f, dep, cfg, 8, tc.fill, col)
					for _, v := range col.v {
						t.Errorf("%v", v)
					}
				})
			}
		}
	}
}

// TestTopKWireRoundTrip pins the topk wire format directly: the decoded
// row keeps exactly the k largest-magnitude entries and zeroes the rest,
// and degenerate streams (zero rows, all-zero rows, full density) round-
// trip cleanly.
// TestFusedDecodeAddMatchesScatterAdd is the quantized backward receive in
// miniature: several peers' mixed-width streams target overlapping local
// rows. Adding each decoded row straight into dxLocal must equal, bit for
// bit, the path it replaced — decode the stream into a staging matrix, then
// scatterAddRows32 — with peers applied in the same order.
func TestFusedDecodeAddMatchesScatterAdd(t *testing.T) {
	const local, dim = 30, 21
	rng := tensor.NewRNG(17)
	peers := [][]int32{
		{4, 0, 29, 7, 7, 12},
		{7, 4, 5, 6, 28, 29, 0, 1, 2},
		{12},
	}
	fused, staged := tensor.New(local, dim), tensor.New(local, dim)
	fused.FillUniform(rng, -1, 1)
	copy(staged.Data, fused.Data)
	for _, rows := range peers {
		grads := tensor.New(len(rows), dim)
		grads.FillNormal(rng, 0, 1e-2)
		widths := quant.RandomWidths(len(rows), rng)
		stream, err := quant.QuantizeMixed(grads, nil, widths, rng)
		if err != nil {
			t.Fatal(err)
		}

		if err := quant.DequantizeMixedAdd(stream, fused, rows, widths); err != nil {
			t.Fatal(err)
		}

		tmp := tensor.New(len(rows), dim)
		if err := quant.DequantizeMixed(stream, tmp, nil, widths); err != nil {
			t.Fatal(err)
		}
		scatterAddRows32(staged, rows, tmp)
	}
	for i := range staged.Data {
		if math.Float32bits(fused.Data[i]) != math.Float32bits(staged.Data[i]) {
			t.Fatalf("element %d: fused decode-add %v, decode + scatter-add %v", i, fused.Data[i], staged.Data[i])
		}
	}
	if err := quant.DequantizeMixedAdd([]byte{1, 2, 3}, fused, peers[2], []quant.BitWidth{quant.B2}); err == nil {
		t.Fatal("short stream accepted")
	}
}

func TestTopKWireRoundTrip(t *testing.T) {
	x := tensor.New(3, 6)
	copy(x.Row(0), []float32{0.1, -5, 0.2, 3, -0.3, 0})
	copy(x.Row(1), []float32{1, 1, 1, 1, 1, 1}) // ties break to low index
	// Row 2 stays all-zero.
	for _, k := range []int{1, 2, 6} {
		buf := encodeTopK(x, []int32{0, 1, 2}, k)
		if len(buf) != topkWireSize(3, k) {
			t.Fatalf("k=%d: stream is %d bytes, want %d", k, len(buf), topkWireSize(3, k))
		}
		dst := tensor.New(3, 6)
		dst.FillUniform(tensor.NewRNG(1), -1, 1) // must be overwritten
		if err := decodeTopK(buf, dst, []int32{0, 1, 2}, 0, false); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		for r := 0; r < 3; r++ {
			kept := 0
			for c, v := range dst.Row(r) {
				if v != 0 {
					kept++
					if v != x.Row(r)[c] {
						t.Errorf("k=%d row %d col %d: decoded %v, want %v", k, r, c, v, x.Row(r)[c])
					}
				}
			}
			if kept > k {
				t.Errorf("k=%d row %d: %d non-zero entries decoded", k, r, kept)
			}
		}
	}
	// k=2 on row 0 must keep the two largest magnitudes (-5 and 3).
	buf := encodeTopK(x, []int32{0}, 2)
	dst := tensor.New(1, 6)
	if err := decodeTopK(buf, dst, []int32{0}, 0, false); err != nil {
		t.Fatal(err)
	}
	want := []float32{0, -5, 0, 3, 0, 0}
	for c, v := range dst.Row(0) {
		if v != want[c] {
			t.Errorf("col %d: decoded %v, want %v", c, v, want[c])
		}
	}
	// Zero-length row set: header-only stream, no-op decode.
	empty := encodeTopK(x, nil, 2)
	if len(empty) != 4 {
		t.Fatalf("empty stream is %d bytes, want the 4-byte header", len(empty))
	}
	if err := decodeTopK(empty, dst, nil, 0, false); err != nil {
		t.Fatal(err)
	}
	// Corrupted streams must error, not panic.
	for _, bad := range [][]byte{nil, {1}, {255, 255, 255, 255}, buf[:len(buf)-1]} {
		if err := decodeTopK(bad, dst, []int32{0}, 0, false); err == nil {
			t.Errorf("corrupted stream %v decoded without error", bad)
		}
	}
}

// TestDeltaWireRoundTrip pins the delta wire format: keyframes are exact,
// residual epochs reconstruct prev + dequantized delta, and sender and
// receiver references stay bit-identical across both phases.
func TestDeltaWireRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(3)
	x := tensor.New(4, 5)
	x.FillUniform(rng, -1, 1)
	idx := []int32{0, 2, 3}

	var sendPrev, recvPrev *tensor.Matrix
	key, err := encodeDelta(nil, x, idx, &sendPrev, true, rng)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := decodeDelta(nil, key, len(idx), x.Cols, &recvPrev, true)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range idx {
		for c, v := range rec.Row(i) {
			if v != x.Row(int(r))[c] {
				t.Fatalf("keyframe row %d col %d: decoded %v, want exact %v", r, c, v, x.Row(int(r))[c])
			}
		}
	}

	// Drift the source and ship a residual epoch.
	for i := range x.Data {
		x.Data[i] += 0.01 * float32(i%7)
	}
	delta, err := encodeDelta(nil, x, idx, &sendPrev, false, rng)
	if err != nil {
		t.Fatal(err)
	}
	rec, err = decodeDelta(nil, delta, len(idx), x.Cols, &recvPrev, false)
	if err != nil {
		t.Fatal(err)
	}
	// Sender and receiver references must agree bit for bit.
	for i := range sendPrev.Data {
		if sendPrev.Data[i] != recvPrev.Data[i] {
			t.Fatalf("element %d: sender reference %v, receiver %v", i, sendPrev.Data[i], recvPrev.Data[i])
		}
	}
	// The reconstruction is within the 8-bit bound of the true rows: the
	// residual spans < 0.07 here, so one 8-bit step is well under 0.02.
	for i, r := range idx {
		row := x.Row(int(r))
		for c, v := range rec.Row(i) {
			diff := float64(v - row[c])
			if diff < 0 {
				diff = -diff
			}
			if diff > 0.02 {
				t.Errorf("residual row %d col %d: decoded %v, want %v within the 8-bit delta bound", r, c, v, row[c])
			}
		}
	}

	// Tag and phase mismatches must error, not panic.
	if _, err := decodeDelta(nil, delta, len(idx), x.Cols, &recvPrev, true); err == nil {
		t.Error("residual payload accepted on a keyframe epoch")
	}
	if _, err := decodeDelta(nil, key, len(idx), x.Cols, &recvPrev, false); err == nil {
		t.Error("keyframe payload accepted on a residual epoch")
	}
	var nilPrev *tensor.Matrix
	if _, err := decodeDelta(nil, delta, len(idx), x.Cols, &nilPrev, false); err == nil {
		t.Error("residual without a keyframe reference decoded without error")
	}
	if _, err := decodeDelta(nil, nil, len(idx), x.Cols, &recvPrev, false); err == nil {
		t.Error("empty stream decoded without error")
	}

	// Zero-length row sets round-trip as tag-only streams.
	var ep, rp *tensor.Matrix
	kf, err := encodeDelta(nil, x, nil, &ep, true, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeDelta(nil, kf, 0, x.Cols, &rp, true); err != nil {
		t.Fatal(err)
	}
}

// TestEFQuantResidualTelescopes pins error feedback's defining property:
// feeding the carried residual back into the next quantization makes the
// *accumulated* transmitted signal track the accumulated true signal to
// within a single quantization step, instead of drifting by one step per
// epoch.
func TestEFQuantResidualTelescopes(t *testing.T) {
	cfg := codecConformConfig()
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	ds := synthetic.MustLoad("tiny", synthetic.Scale(1))
	dep := Deploy(ds, 2, GCN, partition.Block)
	f, err := LookupCodec(CodecEFQuant)
	if err != nil {
		t.Fatal(err)
	}
	c, err := f(&CodecEnv{Cfg: &cfg, Locals: dep.Locals, Rank: 0, InDim: 4, Shared: &RunShared{}})
	if err != nil {
		t.Fatal(err)
	}
	ef := c.(*efQuantCodec)
	lg := dep.Locals[0]
	var dst int
	for q, rows := range lg.SendTo {
		if len(rows) > 0 {
			dst = q
			break
		}
	}
	rows := len(lg.SendTo[dst])
	x := tensor.New(lg.NumLocal, 4)
	rng := tensor.NewRNG(9)
	x.FillUniform(rng, -1, 1)
	resid := ef.resid[forward][0][dst]
	sumTrue := tensor.New(rows, 4)
	sumSent := tensor.New(rows, 4)
	for epoch := 0; epoch < 8; epoch++ {
		stream, err := ef.encodeEF(nil, x, lg.SendTo[dst], resid, rng)
		if err != nil {
			t.Fatal(err)
		}
		recon := tensor.New(rows, 4)
		if err := quant.DequantizeRows(stream, recon, nil, rows, ef.bits); err != nil {
			t.Fatal(err)
		}
		for i, r := range lg.SendTo[dst] {
			for j := 0; j < 4; j++ {
				sumTrue.Row(i)[j] += x.Row(int(r))[j]
				sumSent.Row(i)[j] += recon.Row(i)[j]
			}
		}
		// Error feedback telescopes: Σ sent = Σ true − resid, so the
		// accumulated gap is exactly the current residual — bounded by
		// one quantization step, not growing with the epoch count.
		for i := 0; i < rows; i++ {
			for j := 0; j < 4; j++ {
				gap := sumTrue.Row(i)[j] - sumSent.Row(i)[j]
				if d := gap - resid.Row(i)[j]; d > 1e-4 || d < -1e-4 {
					t.Fatalf("epoch %d row %d col %d: accumulated gap %v != residual %v", epoch, i, j, gap, resid.Row(i)[j])
				}
			}
		}
		x.FillUniform(rng, -1, 1) // fresh signal each epoch
	}
}

func TestConfigValidateCodecAndTransport(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Codec = "no-such-codec"
	if err := cfg.Validate(); err == nil {
		t.Fatal("unknown codec must fail validation")
	}
	cfg = DefaultConfig()
	cfg.Transport = "no-such-transport"
	if err := cfg.Validate(); err == nil {
		t.Fatal("unknown transport must fail validation")
	}
	cfg = DefaultConfig()
	cfg.Codec = CodecSancus
	cfg.Transport = TransportInprocess
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid codec/transport rejected: %v", err)
	}
}

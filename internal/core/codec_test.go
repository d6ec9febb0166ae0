package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/quant"
	"repro/internal/synthetic"
	"repro/internal/tensor"
)

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
func TestCodecForwardRoundTripTable(t *testing.T) {
	ds := synthetic.MustLoad("tiny", synthetic.Scale(1))
	dep := testDeploy(ds, 3, GCN)
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
		// Only uniform consumes UniformBits; for the rest one width covers
		// the exchange, so skip the repeated runs.
		widths := []quant.BitWidth{quant.B2, quant.B4, quant.B8, quant.B32}
		if name != CodecUniform {
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

// scatterAddRows32 adds src row i into dst row idx[i].
func scatterAddRows32(dst *tensor.Matrix, idx []int32, src *tensor.Matrix) {
	for i, r := range idx {
		d := dst.Row(int(r))
		for j, v := range src.Row(i) {
			d[j] += v
		}
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

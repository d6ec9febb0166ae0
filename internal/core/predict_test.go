package core

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/partition"
	"repro/internal/quant"
	"repro/internal/synthetic"
)

// TestPredictMatchesTraining holds Predict to the trainer: every device's
// breakdown equal as float64 bits, field by field, over the codecs whose
// clocks it models, both models, 2–4 parts and every partitioner.
func TestPredictMatchesTraining(t *testing.T) {
	type codec struct {
		name string
		bits quant.BitWidth
	}
	codecs := []codec{{CodecFP32, 0}, {CodecUniform, quant.B2}, {CodecUniform, quant.B4}, {CodecUniform, quant.B8}, {CodecUniform, quant.B32}}
	for _, ds := range []*synthetic.Dataset{synthetic.MustLoad("tiny", 1), synthetic.MustLoad("products-sim", 0.1)} {
		for _, strategy := range []partition.Strategy{partition.LDG, partition.Hash, partition.Block} {
			for parts := 2; parts <= 4; parts++ {
				for _, mk := range []ModelKind{GCN, GraphSAGE} {
					dep := Deploy(ds, parts, mk, strategy)
					for _, c := range codecs {
						cfg := DefaultConfig()
						cfg.Model, cfg.Codec = mk, c.name
						cfg.Hidden, cfg.Epochs, cfg.EvalEvery = 16, 2, 0
						name := fmt.Sprintf("%s/%v/%d parts/%v/%s", ds.Name, strategy, parts, mk, c.name)
						if c.bits != 0 {
							cfg.UniformBits = c.bits
							name += fmt.Sprintf("@%d", c.bits)
						}
						res, err := TrainDeployed(dep, cfg, nil)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						pred, err := Predict(dep, cfg, nil)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						for r, want := range res.PerDevice {
							got, exp := reflect.ValueOf(pred[r].Breakdown), reflect.ValueOf(want)
							for f := 0; f < got.NumField(); f++ {
								g, w := got.Field(f).Float(), exp.Field(f).Float()
								if math.Float64bits(g) != math.Float64bits(w) {
									t.Fatalf("%s: device %d %s predicted %v, trained %v", name, r, got.Type().Field(f).Name, g, w)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestPredictTerms checks the per-epoch terms Table 2 and Fig. 3 print.
func TestPredictTerms(t *testing.T) {
	dep := Deploy(synthetic.MustLoad("tiny", 1), 4, GCN, partition.Block)
	cfg := DefaultConfig()
	cfg.Hidden, cfg.Epochs = 32, 1
	predict := func(codec string, b quant.BitWidth) []DeviceEpoch {
		t.Helper()
		c := cfg
		c.Codec, c.UniformBits = codec, b
		pred, err := Predict(dep, c, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(pred) != 4 {
			t.Fatalf("%d device predictions, want 4", len(pred))
		}
		return pred
	}
	narrow := predict(CodecUniform, quant.B2)
	for r, d := range narrow {
		if d.Ring <= 0 || d.Central <= 0 || d.Marginal <= 0 {
			t.Fatalf("device %d: non-positive term %+v", r, d)
		}
	}
	// Wider messages take longer on the ring. The 32-bit passthrough ships
	// fp32 rows, so it rings exactly as fp32 does (and must not reach the
	// packing size math).
	fp := predict(CodecFP32, cfg.UniformBits)
	for _, b := range []quant.BitWidth{quant.B8, quant.B32} {
		for r, d := range predict(CodecUniform, b) {
			if d.Ring <= narrow[r].Ring {
				t.Fatalf("device %d: %d-bit ring %v not above 2-bit %v", r, b, d.Ring, narrow[r].Ring)
			}
			if b == quant.B32 && d.Ring != fp[r].Ring {
				t.Fatalf("device %d: 32-bit ring %v, fp32 %v", r, d.Ring, fp[r].Ring)
			}
		}
	}
}

// TestPredictRefuses checks that Predict answers only for what it models.
func TestPredictRefuses(t *testing.T) {
	dep := Deploy(synthetic.MustLoad("tiny", 1), 2, GCN, partition.Block)
	for _, codec := range []string{CodecAdaptive, CodecRandom, CodecPipeGCN, CodecSancus} {
		cfg := DefaultConfig()
		cfg.Codec = codec
		if _, err := Predict(dep, cfg, nil); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", codec)) {
			t.Fatalf("codec %s: error %v, want one naming the codec", codec, err)
		}
	}
	cfg := DefaultConfig()
	cfg.Lambda = 2
	if _, err := Predict(dep, cfg, nil); err == nil {
		t.Fatal("a config that fails validation must be refused")
	}
}

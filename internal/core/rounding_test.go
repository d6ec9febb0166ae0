package core

import (
	"reflect"
	"testing"

	"repro/internal/metrics"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// dropoutProbe delegates every call to the codec it wraps and records, at
// each epoch's first Forward, where the device's dropout stream stands.
type dropoutProbe struct {
	MessageCodec
	states *[]tensor.RNGState
}

func (p dropoutProbe) Forward(env *ExchangeEnv, epoch, l int, h, xFull *tensor.Matrix) error {
	if l == 0 {
		*p.states = append(*p.states, env.Dev.Rand().State())
	}
	return p.MessageCodec.Forward(env, epoch, l, h, xFull)
}

// TestDropoutStreamIgnoresCodec: stochastic rounding draws from the
// rounding stream, never the dropout stream, so at one seed every codec —
// full precision, uniform at any width, random and adaptive widths — enters
// each epoch with the dropout stream exactly where Vanilla's is.
func TestDropoutStreamIgnoresCodec(t *testing.T) {
	dep := deployTiny(t, 3)
	record := func(codec string, bits quant.BitWidth) [][]tensor.RNGState {
		cfg := confTrainConfig(codec)
		cfg.UniformBits = bits
		factory, err := LookupCodec(codec)
		if err != nil {
			t.Fatal(err)
		}
		states := make([][]tensor.RNGState, len(dep.Locals))
		cfg.codecFactory = func(env *CodecEnv) (MessageCodec, error) {
			c, err := factory(env)
			if err != nil {
				return nil, err
			}
			return dropoutProbe{MessageCodec: c, states: &states[env.Rank]}, nil
		}
		confTrain(t, dep, cfg)
		return states
	}
	ref := record(CodecFP32, quant.B2)
	for r, states := range ref {
		if len(states) != confTrainConfig(CodecFP32).Epochs {
			t.Fatalf("rank %d: recorded %d epochs", r, len(states))
		}
		if states[0] == states[1] {
			t.Fatalf("rank %d: dropout drew nothing in epoch 0; the probe compares nothing", r)
		}
	}
	variants := []struct {
		codec string
		bits  quant.BitWidth
	}{
		{CodecUniform, quant.B2}, {CodecUniform, quant.B4}, {CodecUniform, quant.B8},
		{CodecRandom, quant.B2}, {CodecAdaptive, quant.B2},
	}
	for _, v := range variants {
		got := record(v.codec, v.bits)
		for r := range ref {
			for e := range ref[r] {
				if got[r][e] != ref[r][e] {
					t.Errorf("%s@%d rank %d: dropout stream at epoch %d differs from fp32's", v.codec, v.bits, r, e)
					break
				}
			}
		}
	}
}

// TestAdaptiveBootstrapIsUniform8: a 1-epoch AdaQP run is its bootstrap
// epoch alone — no trace is solved for an epoch that never comes — so it
// is bit for bit the 1-epoch run of uniform at the bootstrap width: losses,
// accuracy, every device's clock and the byte ledger.
func TestAdaptiveBootstrapIsUniform8(t *testing.T) {
	dep := deployTiny(t, 3)
	run := func(codec string) (*metrics.RunResult, error) {
		cfg := confTrainConfig(codec)
		cfg.Epochs, cfg.UniformBits = 1, bootstrapBits
		return TrainDeployed(dep, cfg, nil)
	}
	want, err := run(CodecUniform)
	if err != nil {
		t.Fatal(err)
	}
	got, err := run(CodecAdaptive)
	if err != nil {
		t.Fatal(err)
	}
	if desc := runDivergence(want, got, true); desc != "" {
		t.Errorf("adaptive's bootstrap epoch differs from uniform@%d (%s)", bootstrapBits, desc)
	}
	if !reflect.DeepEqual(want.PerDevice, got.PerDevice) {
		t.Errorf("per-device clocks differ:\n uniform@%d %+v\n adaptive  %+v", bootstrapBits, want.PerDevice, got.PerDevice)
	}
}

// TestConformCodecCatchesNarrowBootstrap: adaptive declares one
// bootstrap-width step as its epoch-0 error bound, so a bootstrap that
// ships narrower than it declares fails the conformance round trip.
func TestConformCodecCatchesNarrowBootstrap(t *testing.T) {
	narrow := func(env *CodecEnv) (MessageCodec, error) {
		c, err := newQuantCodec(CodecAdaptive)(env)
		if err != nil {
			return nil, err
		}
		c.(*quantCodec).st.installUniformWidths(quant.B2)
		return c, nil
	}
	vs := ConformCodec(narrow, 3)
	for _, v := range vs {
		if v.Check == "codec-roundtrip" {
			return
		}
	}
	t.Errorf("a 2-bit bootstrap passed the round-trip check; violations: %v", vs)
}

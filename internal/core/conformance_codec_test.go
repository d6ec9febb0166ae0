package core

import (
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/partition"
	"repro/internal/tensor"
)

// TestCodecConformanceAllRegistered runs every registered codec through
// the codec-contract suite: decode-of-encode error bounds, byte
// accounting and fixed-seed reproducibility.
func TestCodecConformanceAllRegistered(t *testing.T) {
	for _, name := range CodecNames() {
		f, err := LookupCodec(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, v := range ConformCodec(f, 4) {
				t.Errorf("%s: %v", name, v)
			}
		})
	}
}

// wrapCodec derives a CodecFactory from the fp32 reference with one
// behavior deliberately broken, without registering it: ConformCodec
// takes factories directly precisely so broken candidates never pollute
// the global registry.
func wrapCodec(t *testing.T, wrap func(MessageCodec) MessageCodec) CodecFactory {
	t.Helper()
	inner, err := LookupCodec(CodecFP32)
	if err != nil {
		t.Fatal(err)
	}
	return func(env *CodecEnv) (MessageCodec, error) {
		c, err := inner(env)
		if err != nil {
			return nil, err
		}
		return wrap(c), nil
	}
}

// delegated forwards the optional WireAccountant declaration of the
// wrapped codec, so a stub breaking one contract clause does not also
// trip the byte-accounting check.
type delegated struct{ MessageCodec }

func (d delegated) ForwardWireSizes(lg *partition.LocalGraph, dim int) []int {
	return d.MessageCodec.(WireAccountant).ForwardWireSizes(lg, dim)
}

// lyingBytesCodec reports wire sizes that do not match its payloads.
type lyingBytesCodec struct{ MessageCodec }

func (c lyingBytesCodec) ForwardWireSizes(lg *partition.LocalGraph, _ int) []int {
	out := make([]int, lg.Parts)
	for q := range out {
		if len(lg.SendTo[q]) > 0 {
			out[q] = 7
		}
	}
	return out
}

// noisyCodec corrupts decoded halo rows while declaring no loss.
type noisyCodec struct{ delegated }

func (c noisyCodec) Forward(env *ExchangeEnv, epoch, l int, h, xFull *tensor.Matrix) error {
	if err := c.delegated.Forward(env, epoch, l, h, xFull); err != nil {
		return err
	}
	for i := env.Graph.NumLocal; i < xFull.Rows; i++ {
		row := xFull.Row(i)
		for j := range row {
			row[j] += 0.5
		}
	}
	return nil
}

// flakyCounter makes flakyCodec's perturbation depend on process-global
// history — the codec is not reproducible run to run.
var flakyCounter atomic.Int64

type flakyCodec struct{ delegated }

func (c flakyCodec) Forward(env *ExchangeEnv, epoch, l int, h, xFull *tensor.Matrix) error {
	if err := c.delegated.Forward(env, epoch, l, h, xFull); err != nil {
		return err
	}
	if epoch > 0 {
		jitter := float32(flakyCounter.Add(1)%97) * 1e-3
		for i := env.Graph.NumLocal; i < xFull.Rows; i++ {
			row := xFull.Row(i)
			for j := range row {
				row[j] += jitter
			}
		}
	}
	return nil
}

// TestCodecConformanceCatchesBrokenCodecs: each deliberately broken stub
// must trip the matching contract check.
func TestCodecConformanceCatchesBrokenCodecs(t *testing.T) {
	cases := []struct {
		name      string
		factory   CodecFactory
		wantCheck string
	}{
		{"lying wire sizes", wrapCodec(t, func(c MessageCodec) MessageCodec { return lyingBytesCodec{c} }), "codec-byte-accounting"},
		{"undeclared loss", wrapCodec(t, func(c MessageCodec) MessageCodec { return noisyCodec{delegated{c}} }), "codec-roundtrip"},
		{"global nondeterminism", wrapCodec(t, func(c MessageCodec) MessageCodec { return flakyCodec{delegated{c}} }), "codec-reproducibility"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vs := ConformCodec(tc.factory, 4)
			found := false
			for _, v := range vs {
				if strings.HasPrefix(v.Check, tc.wantCheck) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("conformance missed the violation (want a %q check); got %v", tc.wantCheck, vs)
			}
		})
	}
}

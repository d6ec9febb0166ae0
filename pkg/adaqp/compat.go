package adaqp

import (
	"fmt"

	"repro/internal/core"
)

// The only names this package keeps for benchmark/, which still selects
// systems by their paper names; everything else names a codec.

//lint:file-ignore SA1019 these names re-export core's deprecated ones.

// Method names a training system by its paper name.
//
// Deprecated: kept for benchmark/; delete with ROADMAP item 11. Name a codec.
type Method = core.Method

// Training systems, each a name for one codec, and a second name for
// TransportInprocess.
//
// Deprecated: kept for benchmark/; delete with ROADMAP item 11.
const (
	Vanilla               = core.Vanilla      // CodecFP32
	AdaQP                 = core.AdaQP        // CodecAdaptive
	AdaQPUniform          = core.AdaQPUniform // CodecUniform
	AdaQPRandom           = core.AdaQPRandom  // CodecRandom
	PipeGCN               = core.PipeGCN      // CodecPipeGCN
	SANCUS                = core.SANCUS       // CodecSancus
	TransportShardedAsync = core.TransportShardedAsync
)

// ParseMethod is the inverse of Method.String (see core.ParseMethod).
//
// Deprecated: kept for benchmark/; delete with ROADMAP item 11.
func ParseMethod(s string) (Method, error) { return core.ParseMethod(s) }

// WithMethod selects the codec m names. It applies only when no codec is
// named: a WithCodec name beats it whichever option comes first.
//
// Deprecated: kept for benchmark/; delete with ROADMAP item 11. Use WithCodec.
func WithMethod(m Method) Option {
	return func(s *settings) error {
		codec, err := core.CodecForMethod(m)
		if err != nil {
			return fmt.Errorf("adaqp: %w", err)
		}
		s.methodCodec = codec
		return nil
	}
}

// methodOptions is the one translation of JobSpec.Method (and so of
// cmd/adaqp's -method alias): WithMethod of the parsed name, if any.
func (j JobSpec) methodOptions() ([]Option, error) {
	if j.Method == "" {
		return nil, nil
	}
	m, err := ParseMethod(j.Method)
	if err != nil {
		return nil, err
	}
	return []Option{WithMethod(m)}, nil
}

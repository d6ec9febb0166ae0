package core

import (
	"fmt"
	"strings"
)

// The only names core keeps for benchmark/, which still selects systems by
// their paper names. Training reads Config.Codec alone.

// Method names a training system by its paper name.
//
// Deprecated: kept for benchmark/; delete with ROADMAP item 11. Name a codec.
type Method int

// Training systems, each a name for one codec (see CodecForMethod).
//
// Deprecated: kept for benchmark/; delete with ROADMAP item 11.
const (
	Vanilla Method = iota
	AdaQP
	AdaQPUniform
	AdaQPRandom
	PipeGCN
	SANCUS
)

// methods holds each Method's paper name, ParseMethod's short form, codec.
var methods = [...]struct{ name, short, codec string }{
	Vanilla:      {"Vanilla", "", CodecFP32},
	AdaQP:        {"AdaQP", "", CodecAdaptive},
	AdaQPUniform: {"AdaQP-uniform", "uniform", CodecUniform},
	AdaQPRandom:  {"AdaQP-random", "random", CodecRandom},
	PipeGCN:      {"PipeGCN", "", CodecPipeGCN},
	SANCUS:       {"SANCUS", "", CodecSancus},
}

func (m Method) String() string {
	if m < 0 || int(m) >= len(methods) {
		return fmt.Sprintf("Method(%d)", int(m))
	}
	return methods[m].name
}

// ParseMethod is the inverse of Method.String, also accepting the CLI
// short forms ("uniform", "random"), case-insensitively.
//
// Deprecated: kept for benchmark/; delete with ROADMAP item 11.
func ParseMethod(s string) (Method, error) {
	lower := strings.ToLower(s)
	names := make([]string, len(methods))
	for m, row := range methods {
		if lower == strings.ToLower(row.name) || row.short != "" && lower == row.short {
			return Method(m), nil
		}
		names[m] = row.name
	}
	return 0, fmt.Errorf("core: unknown method %q (want one of %v)", s, names)
}

// CodecForMethod returns the codec a training method names.
//
// Deprecated: kept for benchmark/; delete with ROADMAP item 11.
func CodecForMethod(m Method) (string, error) {
	if m < 0 || int(m) >= len(methods) {
		return "", fmt.Errorf("core: no codec for method %v", m)
	}
	return methods[m].codec, nil
}

// TransportShardedAsync is a second name for TransportInprocess.
//
// Deprecated: kept for benchmark/; delete with ROADMAP item 11.
const TransportShardedAsync = "sharded-async"

func init() { RegisterTransport(TransportShardedAsync, newInprocess) }

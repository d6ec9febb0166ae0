package adaqp

import (
	"reflect"
	"testing"
)

// The deprecated Method names keep their contract until they go: each is
// exactly its codec, and a named codec beats it whatever the order.

// compatRun trains a short fixed-seed job on a quarter-scale tiny graph.
func compatRun(t *testing.T, opts ...Option) *Result {
	t.Helper()
	base := []Option{WithParts(2), WithEpochs(4), WithHidden(8), WithEvalEvery(1),
		WithReassignPeriod(2), WithGroupSize(10), WithSeed(5)}
	eng, err := New(MustLoadDataset("tiny", 0.25), append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestWithMethodIsItsCodec: for every method, WithMethod(m) and a
// WithCodec naming m's codec train bit-identical runs — losses, accuracies,
// per-device clocks, byte ledgers and Result.Codec.
func TestWithMethodIsItsCodec(t *testing.T) {
	for m, codec := range map[Method]string{
		Vanilla: CodecFP32, AdaQP: CodecAdaptive, AdaQPUniform: CodecUniform,
		AdaQPRandom: CodecRandom, PipeGCN: CodecPipeGCN, SANCUS: CodecSancus,
	} {
		byMethod := compatRun(t, WithMethod(m))
		byCodec := compatRun(t, WithCodec(CodecSpec{Name: codec}))
		if byMethod.Codec != codec {
			t.Errorf("%v: run recorded codec %q, want %q", m, byMethod.Codec, codec)
		}
		if !reflect.DeepEqual(byMethod, byCodec) {
			t.Errorf("%v: WithMethod run differs from the %s codec run", m, codec)
		}
	}
}

// TestNamedCodecBeatsMethod: a WithCodec name wins over WithMethod in
// either option order, on New and on Session, and a later WithMethod
// replaces an earlier one.
func TestNamedCodecBeatsMethod(t *testing.T) {
	ds := MustLoadDataset("tiny", 0.25)
	codecOf := func(newOpts, sessOpts []Option) string {
		t.Helper()
		eng, err := New(ds, newOpts...)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := eng.Session(sessOpts...)
		if err != nil {
			t.Fatal(err)
		}
		return sess.Codec()
	}
	method, named := WithMethod(SANCUS), WithCodec(CodecSpec{Name: CodecPipeGCN})
	for name, tc := range map[string][2][]Option{
		"New, method first":     {{method, named}, nil},
		"New, codec first":      {{named, method}, nil},
		"method on Session":     {{named}, {method}},
		"codec on Session":      {{method}, {named}},
		"Session, method first": {nil, {method, named}},
		"Session, codec first":  {nil, {named, method}},
	} {
		if got := codecOf(tc[0], tc[1]); got != CodecPipeGCN {
			t.Errorf("%s: codec %q, want %q", name, got, CodecPipeGCN)
		}
	}
	if got := codecOf([]Option{method}, []Option{WithMethod(AdaQP)}); got != CodecAdaptive {
		t.Errorf("a later WithMethod: codec %q, want %q", got, CodecAdaptive)
	}
	if got := codecOf(nil, nil); got != CodecFP32 {
		t.Errorf("no codec and no method: codec %q, want %q", got, CodecFP32)
	}
}

// TestJobSpecMethodIsItsCodec: JobSpec.Method trains exactly what the same
// name as a codec trains, and a JobSpec.Codec beats it.
func TestJobSpecMethodIsItsCodec(t *testing.T) {
	run := func(spec JobSpec) *Result {
		t.Helper()
		opts, err := spec.Options()
		if err != nil {
			t.Fatal(err)
		}
		return compatRun(t, opts...)
	}
	byMethod := run(JobSpec{Method: "sancus"})
	if byCodec := run(JobSpec{Codec: CodecSancus}); !reflect.DeepEqual(byMethod, byCodec) {
		t.Error(`JobSpec{Method: "sancus"} trains differently from JobSpec{Codec: "sancus"}`)
	}
	if res := run(JobSpec{Method: "sancus", Codec: CodecPipeGCN}); res.Codec != CodecPipeGCN {
		t.Errorf("spec naming both trained codec %q, want %q", res.Codec, CodecPipeGCN)
	}
}

func TestUnknownMethodRejected(t *testing.T) {
	if _, err := New(MustLoadDataset("tiny", 0.25), WithMethod(Method(42))); err == nil {
		t.Error("WithMethod(Method(42)) accepted")
	}
	if _, err := (JobSpec{Dataset: "tiny", Method: "no-such"}).Options(); err == nil {
		t.Error(`JobSpec{Method: "no-such"} accepted`)
	}
	for m := range Method(6) {
		if got, err := ParseMethod(m.String()); err != nil || got != m {
			t.Errorf("ParseMethod(%q) = %v, %v", m.String(), got, err)
		}
	}
}

// TestShardedTransportPublicAPI: the sharded-async name resolves to a
// backend that passes the public conformance surface.
func TestShardedTransportPublicAPI(t *testing.T) {
	f, err := LookupTransport(TransportShardedAsync)
	if err != nil {
		t.Fatal(err)
	}
	if vs := VerifyTransport(f, 4); len(vs) != 0 {
		t.Fatalf("public conformance surface reported violations: %v", vs)
	}
}

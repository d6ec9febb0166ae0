package adaqp_test

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/pkg/adaqp"
)

// tinyOpts is a fast configuration shared by the training tests.
func tinyOpts(extra ...adaqp.Option) []adaqp.Option {
	base := []adaqp.Option{
		adaqp.WithParts(3),
		adaqp.WithHidden(32),
		adaqp.WithEpochs(8),
		adaqp.WithEvalEvery(4),
		adaqp.WithReassignPeriod(5),
		adaqp.WithGroupSize(10),
	}
	return append(base, extra...)
}

func TestNewDefaults(t *testing.T) {
	ds := adaqp.MustLoadDataset("tiny", 1)
	eng, err := adaqp.New(ds)
	if err != nil {
		t.Fatal(err)
	}
	dep := eng.Deployment()
	if dep.Assignment.Parts != 4 {
		t.Fatalf("default parts = %d, want 4", dep.Assignment.Parts)
	}
	if eng.Dataset() != ds {
		t.Fatal("Dataset accessor lost the dataset")
	}
	if _, err := adaqp.New(nil); err == nil {
		t.Fatal("nil dataset must be rejected")
	}
}

func TestOptionValidation(t *testing.T) {
	ds := adaqp.MustLoadDataset("tiny", 1)
	bad := map[string]adaqp.Option{
		"parts":       adaqp.WithParts(0),
		"epochs":      adaqp.WithEpochs(0),
		"layers":      adaqp.WithLayers(0),
		"hidden":      adaqp.WithHidden(-1),
		"lr":          adaqp.WithLR(0),
		"dropout":     adaqp.WithDropout(1.5),
		"lambda":      adaqp.WithLambda(2),
		"group":       adaqp.WithGroupSize(0),
		"period":      adaqp.WithReassignPeriod(0),
		"bits":        adaqp.WithCodec(adaqp.CodecSpec{UniformBits: 3}),
		"seed":        adaqp.WithSeed(0),
		"eval":        adaqp.WithEvalEvery(-1),
		"sancus":      adaqp.WithCodec(adaqp.CodecSpec{SancusDrift: -0.1, SancusMaxStale: 2}),
		"max-stale":   adaqp.WithCodec(adaqp.CodecSpec{SancusDrift: 0.1}),
		"cost model":  adaqp.WithCostModel(nil),
		"workers":     adaqp.WithTransport(adaqp.TransportSpec{Workers: -1}),
		"drift":       adaqp.WithCodec(adaqp.CodecSpec{SancusMaxStale: 3}),
		"model":       adaqp.WithModel(adaqp.ModelKind(42)),
		"partitioner": adaqp.WithPartitioner(adaqp.Strategy(42)),
		// Past the ceilings, and values a conversion would have hidden:
		// 258 wraps to a valid uint8 width, 1e40 is +Inf as a float32.
		"bits 258":   adaqp.WithCodec(adaqp.CodecSpec{UniformBits: 258}),
		"lr +Inf":    adaqp.WithLR(1e40),
		"parts 1025": adaqp.WithParts(1025),
		"workers 65": adaqp.WithTransport(adaqp.TransportSpec{Name: adaqp.TransportProcSharded, Workers: 65}),
	}
	for name, opt := range bad {
		// New deploys nothing and starts no process: the refusal is the
		// options' validation alone.
		_, err := adaqp.New(ds, opt)
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("option %q with an invalid value: error %v does not name it", name, err)
		}
	}
}

func TestUnknownCodecAndTransportRejected(t *testing.T) {
	ds := adaqp.MustLoadDataset("tiny", 1)
	_, err := adaqp.New(ds, adaqp.WithCodec(adaqp.CodecSpec{Name: "no-such-codec"}))
	if err == nil || !strings.Contains(err.Error(), "no-such-codec") {
		t.Fatalf("unknown codec must be rejected by name: %v", err)
	}
	_, err = adaqp.New(ds, adaqp.WithTransport(adaqp.TransportSpec{Name: "no-such-transport"}))
	if err == nil || !strings.Contains(err.Error(), "no-such-transport") {
		t.Fatalf("unknown transport must be rejected by name: %v", err)
	}
}

func TestCodecRegistryLookup(t *testing.T) {
	have := map[string]bool{}
	for _, n := range adaqp.Codecs() {
		have[n] = true
	}
	for _, want := range []string{
		adaqp.CodecFP32, adaqp.CodecUniform, adaqp.CodecAdaptive,
		adaqp.CodecSancus, adaqp.CodecRandom, adaqp.CodecPipeGCN,
	} {
		if !have[want] {
			t.Fatalf("codec %q missing from registry: %v", want, adaqp.Codecs())
		}
	}
	if _, err := adaqp.LookupCodec(adaqp.CodecSancus); err != nil {
		t.Fatal(err)
	}
	if _, err := adaqp.LookupCodec("bogus"); err == nil {
		t.Fatal("unknown codec lookup must error")
	}
}

// registerDelegating registers the test codec once per process: the
// registry panics on a second registration, which -count > 1 would make.
var registerDelegating sync.Once

// TestCustomCodecRegistration registers a delegating codec under a new
// name and trains with it: the registry selects the scheme, so the run must match the built-in bit for bit.
func TestCustomCodecRegistration(t *testing.T) {
	fp32, err := adaqp.LookupCodec(adaqp.CodecFP32)
	if err != nil {
		t.Fatal(err)
	}
	registerDelegating.Do(func() { adaqp.RegisterCodec("test-delegating-fp32", fp32) })

	ds := adaqp.MustLoadDataset("tiny", 1)
	eng, err := adaqp.New(ds, tinyOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := eng.Run(adaqp.WithCodec(adaqp.CodecSpec{Name: adaqp.CodecFP32}))
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Run(adaqp.WithCodec(adaqp.CodecSpec{Name: "test-delegating-fp32"}))
	if err != nil {
		t.Fatal(err)
	}
	if got.Codec != "test-delegating-fp32" {
		t.Fatalf("run did not record the custom codec: %q", got.Codec)
	}
	for i := range ref.Epochs {
		if ref.Epochs[i].Loss != got.Epochs[i].Loss {
			t.Fatalf("epoch %d: custom codec diverged (%v vs %v)", i, got.Epochs[i].Loss, ref.Epochs[i].Loss)
		}
	}
}

// TestCompressionCodecsTrainPublicAPI trains each quantizing codec through
// the Engine API with UniformBits off-default, checking the run records the
// codec and produces a finite, reproducible loss curve.
func TestCompressionCodecsTrainPublicAPI(t *testing.T) {
	ds := adaqp.MustLoadDataset("tiny", 1)
	eng, err := adaqp.New(ds, tinyOpts(adaqp.WithCodec(adaqp.CodecSpec{UniformBits: 4}))...)
	if err != nil {
		t.Fatal(err)
	}
	for _, codec := range []string{adaqp.CodecUniform, adaqp.CodecRandom, adaqp.CodecAdaptive} {
		a, err := eng.Run(adaqp.WithCodec(adaqp.CodecSpec{Name: codec}))
		if err != nil {
			t.Fatalf("%s: %v", codec, err)
		}
		if a.Codec != codec {
			t.Fatalf("run recorded codec %q, want %q", a.Codec, codec)
		}
		b, err := eng.Run(adaqp.WithCodec(adaqp.CodecSpec{Name: codec}))
		if err != nil {
			t.Fatalf("%s: %v", codec, err)
		}
		for i := range a.Epochs {
			if loss := a.Epochs[i].Loss; math.IsNaN(loss) || math.IsInf(loss, 0) {
				t.Fatalf("%s epoch %d: loss %v", codec, i, loss)
			}
			if a.Epochs[i].Loss != b.Epochs[i].Loss {
				t.Fatalf("%s epoch %d: repeated run diverged (%v vs %v)", codec, i, a.Epochs[i].Loss, b.Epochs[i].Loss)
			}
		}
	}
}

// TestVerifyCodecPublicAPI runs the codec-contract suite through the
// public seam: a built-in codec passes, and a wrapper that corrupts
// decoded halos without declaring loss is caught.
func TestVerifyCodecPublicAPI(t *testing.T) {
	f, err := adaqp.LookupCodec(adaqp.CodecUniform)
	if err != nil {
		t.Fatal(err)
	}
	if vs := adaqp.VerifyCodec(f, 3); len(vs) > 0 {
		t.Fatalf("built-in uniform codec failed conformance: %v", vs)
	}
	errFactory := func(*adaqp.CodecEnv) (adaqp.MessageCodec, error) {
		return nil, errors.New("deliberately unconstructible")
	}
	if vs := adaqp.VerifyCodec(errFactory, 3); len(vs) == 0 {
		t.Fatal("a factory that cannot build codecs must fail conformance")
	}
	if vs := adaqp.VerifyCodec(nil, 3); len(vs) == 0 {
		t.Fatal("a nil factory must fail conformance")
	}
	if vs := adaqp.VerifyCodec(f, 1); len(vs) == 0 {
		t.Fatal("parts < 2 must be rejected")
	}
}

// TestFP32PassthroughParity: quantized exchange at the 32-bit passthrough
// must reproduce the fp32 codec's loss trajectory exactly — only the
// simulated schedule (overlap vs serial) may differ.
func TestFP32PassthroughParity(t *testing.T) {
	ds := adaqp.MustLoadDataset("tiny", 1)
	eng, err := adaqp.New(ds, tinyOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := eng.Run(adaqp.WithCodec(adaqp.CodecSpec{Name: adaqp.CodecFP32}))
	if err != nil {
		t.Fatal(err)
	}
	pass, err := eng.Run(adaqp.WithCodec(adaqp.CodecSpec{Name: adaqp.CodecUniform, UniformBits: 32}))
	if err != nil {
		t.Fatal(err)
	}
	if len(fp.Epochs) != len(pass.Epochs) {
		t.Fatalf("epoch count mismatch: %d vs %d", len(fp.Epochs), len(pass.Epochs))
	}
	for i := range fp.Epochs {
		if fp.Epochs[i].Loss != pass.Epochs[i].Loss {
			t.Fatalf("epoch %d: passthrough loss %v != fp32 loss %v",
				i, pass.Epochs[i].Loss, fp.Epochs[i].Loss)
		}
	}
	if fp.FinalTest != pass.FinalTest {
		t.Fatalf("final test accuracy differs: %v vs %v", pass.FinalTest, fp.FinalTest)
	}
	// And a genuinely quantized width must NOT match — the parity above is
	// meaningful only if quantization normally changes the trajectory.
	q2, err := eng.Run(adaqp.WithCodec(adaqp.CodecSpec{Name: adaqp.CodecUniform, UniformBits: 2}))
	if err != nil {
		t.Fatal(err)
	}
	if q2.Epochs[len(q2.Epochs)-1].Loss == fp.Epochs[len(fp.Epochs)-1].Loss {
		t.Fatal("2-bit run should diverge from fp32")
	}
}

func TestEpochCallback(t *testing.T) {
	ds := adaqp.MustLoadDataset("tiny", 1)
	var seen []adaqp.EpochStat
	eng, err := adaqp.New(ds, tinyOpts(
		adaqp.WithCodec(adaqp.CodecSpec{Name: adaqp.CodecAdaptive}),
		adaqp.WithEpochCallback(func(e adaqp.EpochStat) { seen = append(seen, e) }))...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(res.Epochs) {
		t.Fatalf("callback saw %d epochs, result has %d", len(seen), len(res.Epochs))
	}
	sameAcc := func(a, b float64) bool {
		return a == b || (math.IsNaN(a) && math.IsNaN(b))
	}
	for i, e := range seen {
		r := res.Epochs[i]
		if e.Epoch != r.Epoch || e.Loss != r.Loss || e.SimTime != r.SimTime || !sameAcc(e.ValAcc, r.ValAcc) {
			t.Fatalf("epoch %d: callback stat %+v != recorded %+v", i, e, r)
		}
		if i > 0 && e.SimTime < seen[i-1].SimTime {
			t.Fatalf("epoch %d: simulated time went backwards", i)
		}
	}
}

func TestSessionsShareDeployment(t *testing.T) {
	ds := adaqp.MustLoadDataset("tiny", 1)
	eng, err := adaqp.New(ds, tinyOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	a, err := eng.Session(adaqp.WithCodec(adaqp.CodecSpec{Name: adaqp.CodecFP32}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.Session(adaqp.WithCodec(adaqp.CodecSpec{Name: adaqp.CodecSancus}))
	if err != nil {
		t.Fatal(err)
	}
	if a.Deployment() != b.Deployment() {
		t.Fatal("codec overrides must reuse the engine's partitioning")
	}
	c, err := eng.Session(adaqp.WithParts(2))
	if err != nil {
		t.Fatal(err)
	}
	if dep := c.Deployment(); dep.Assignment.Parts != 2 {
		t.Fatalf("parts override ignored: %d", dep.Assignment.Parts)
	}
}

func TestEngineRunRecordsCodec(t *testing.T) {
	ds := adaqp.MustLoadDataset("tiny", 1)
	eng, err := adaqp.New(ds, tinyOpts(adaqp.WithCodec(adaqp.CodecSpec{Name: adaqp.CodecAdaptive}))...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Codec != adaqp.CodecAdaptive {
		t.Fatalf("AdaQP run recorded codec %q, want %q", res.Codec, adaqp.CodecAdaptive)
	}
	last := res.Epochs[len(res.Epochs)-1]
	if math.IsNaN(last.Loss) || math.IsInf(last.Loss, 0) {
		t.Fatalf("non-finite loss %v", last.Loss)
	}
	if res.WallClock <= 0 {
		t.Fatal("no simulated time elapsed")
	}
}

func TestParseRoundTripPublic(t *testing.T) {
	for _, k := range []adaqp.ModelKind{adaqp.GCN, adaqp.GraphSAGE} {
		got, err := adaqp.ParseModelKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseModelKind(%q) = %v, %v", k.String(), got, err)
		}
	}
}

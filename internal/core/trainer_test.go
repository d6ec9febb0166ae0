package core

import (
	"context"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/chaos"
	"repro/internal/cpu"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/quant"
	"repro/internal/synthetic"
	"repro/internal/tensor"
	"repro/internal/timing"
)

// testDeploy deploys ds parts ways for model on the partitioner every
// core test uses unless it picks one on purpose. It is Block, the
// partitioner codec_golden.txt and eval_golden.txt were captured on.
func testDeploy(ds *synthetic.Dataset, parts int, model ModelKind) *Deployment {
	return Deploy(ds, parts, model, partition.Block)
}

// trainBlock trains cfg over ds split parts ways by testDeploy, on the
// default cost model.
func trainBlock(ds *synthetic.Dataset, parts int, cfg Config) (*metrics.RunResult, error) {
	return TrainDeployed(testDeploy(ds, parts, cfg.Model), cfg, nil)
}

func tinyConfig(codec string) Config {
	cfg := DefaultConfig()
	cfg.Codec = codec
	cfg.Hidden = 32
	cfg.Epochs = 12
	cfg.EvalEvery = 4
	cfg.ReassignPeriod = 5
	cfg.GroupSize = 10
	cfg.Dropout = 0.2
	return cfg
}

func TestVanillaSinglePartitionLearns(t *testing.T) {
	ds := synthetic.MustLoad("tiny", 1)
	cfg := tinyConfig(CodecFP32)
	cfg.Epochs = 60
	res, err := trainBlock(ds, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalTest < 0.55 {
		t.Fatalf("single-partition GCN should learn tiny dataset: test acc %.3f", res.FinalTest)
	}
	t.Logf("tiny GCN 1-part: test=%.3f wallclock=%.3fs", res.FinalTest, res.WallClock)
}

func TestVanillaDistributedMatchesSingle(t *testing.T) {
	ds := synthetic.MustLoad("tiny", 1)
	cfg := tinyConfig(CodecFP32)
	cfg.Dropout = 0 // dropout RNG streams differ per device; disable for exact comparison
	cfg.Epochs = 8
	single, err := trainBlock(ds, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := trainBlock(ds, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(single.Epochs) != len(multi.Epochs) {
		t.Fatalf("epoch count mismatch %d vs %d", len(single.Epochs), len(multi.Epochs))
	}
	for i := range single.Epochs {
		a, b := single.Epochs[i].Loss, multi.Epochs[i].Loss
		if math.Abs(a-b) > 1e-3*(1+math.Abs(a)) {
			t.Fatalf("epoch %d: distributed full-graph loss %.6f diverges from single-device %.6f", i, b, a)
		}
	}
}

func TestAllMethodsRun(t *testing.T) {
	ds := synthetic.MustLoad("tiny", 1)
	for _, codec := range []string{CodecFP32, CodecAdaptive, CodecUniform, CodecRandom, CodecPipeGCN, CodecSancus} {
		for _, model := range []ModelKind{GCN, GraphSAGE} {
			cfg := tinyConfig(codec)
			cfg.Model = model
			res, err := trainBlock(ds, 2, cfg)
			if err != nil {
				t.Fatalf("%v/%v: %v", codec, model, err)
			}
			last := res.Epochs[len(res.Epochs)-1]
			if math.IsNaN(last.Loss) || math.IsInf(last.Loss, 0) {
				t.Fatalf("%v/%v: non-finite loss %v", codec, model, last.Loss)
			}
			if res.WallClock <= 0 {
				t.Fatalf("%v/%v: no simulated time elapsed", codec, model)
			}
			t.Logf("%v/%v: loss=%.4f test=%.3f wall=%.3fs", codec, model, last.Loss, res.FinalTest, res.WallClock)
		}
	}
}

func TestMultiLabelTraining(t *testing.T) {
	ds := synthetic.MustLoad("tiny-multi", 1)
	cfg := tinyConfig(CodecAdaptive)
	cfg.Model = GraphSAGE
	cfg.Epochs = 15
	res, err := trainBlock(ds, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalTest <= 0 || res.FinalTest > 1 {
		t.Fatalf("micro-F1 out of range: %v", res.FinalTest)
	}
}

func TestAdaQPFasterThanVanilla(t *testing.T) {
	// The tiny test graph sends kilobyte payloads, which a 50µs-latency
	// link turns latency-bound — a regime where compression cannot help
	// (the paper's graphs ship megabytes per pair). Use a
	// bandwidth-dominated model so the test exercises the paper's regime,
	// and compare per-epoch training time: with only 12 epochs the
	// assignment overhead cannot amortize as it does over the paper's
	// hundreds of epochs.
	model := timing.Default()
	model.Latency = 1e-7
	ds := synthetic.MustLoad("tiny", 1)
	dep := Deploy(ds, 4, GCN, partition.LDG)
	van, err := TrainDeployed(dep, tinyConfig(CodecFP32), model)
	if err != nil {
		t.Fatal(err)
	}
	ada, err := TrainDeployed(dep, tinyConfig(CodecAdaptive), model)
	if err != nil {
		t.Fatal(err)
	}
	vanEpoch := float64(van.WallClock)
	adaEpoch := float64(ada.WallClock - ada.AssignTime)
	if adaEpoch >= vanEpoch {
		t.Fatalf("AdaQP train time (%.6fs) should beat Vanilla (%.6fs) in the bandwidth-bound regime", adaEpoch, vanEpoch)
	}
	t.Logf("speedup %.2fx (assign overhead %.6fs)", vanEpoch/adaEpoch, ada.AssignTime)
}

func TestUniform2BitCompression(t *testing.T) {
	ds := synthetic.MustLoad("tiny", 1)
	dep := Deploy(ds, 4, GCN, partition.LDG)
	cfg := tinyConfig(CodecUniform)
	cfg.UniformBits = quant.B2
	van, err := TrainDeployed(dep, tinyConfig(CodecFP32), nil)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := TrainDeployed(dep, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	vb, qb := totalBytes(van.BytesMoved), totalBytes(q2.BytesMoved)
	// 2-bit halves-of-halves: expect ≥ 5× traffic reduction even with
	// headers and the full-precision model-gradient allreduce excluded
	// from BytesMoved accounting... allreduce moves no payload here.
	if float64(vb) < 5*float64(qb) {
		t.Fatalf("2-bit should shrink traffic ≥5x: vanilla=%d quantized=%d", vb, qb)
	}
}

func totalBytes(bm [][]int64) int64 {
	var s int64
	for _, row := range bm {
		for _, b := range row {
			s += b
		}
	}
	return s
}

// rawCountingRuntime counts rank 0's raw (uncharged, evaluation-only) halo
// exchanges of a run, wrapped around the in-process backend through the
// transportFactory seam.
type rawCountingRuntime struct {
	Runtime
	rawAll2All atomic.Int64
}

type rawCountingTransport struct {
	Transport
	rt *rawCountingRuntime
}

func (t rawCountingTransport) RawAll2All(payloads [][]byte) [][]byte {
	if t.Rank() == 0 {
		t.rt.rawAll2All.Add(1)
	}
	return t.Transport.RawAll2All(payloads)
}

func (rt *rawCountingRuntime) Run(seed uint64, body func(Transport) error) error {
	return rt.Runtime.Run(seed, func(tr Transport) error {
		return body(rawCountingTransport{Transport: tr, rt: rt})
	})
}

// shortGatherDev cuts one byte off every peer's metrics-sideband payload.
type shortGatherDev struct{ Transport }

func (d shortGatherDev) RawAllGather(p []byte) [][]byte {
	all := d.Transport.RawAllGather(p)
	for src, b := range all {
		if src != d.Rank() && len(b) > 0 {
			all[src] = b[:len(b)-1]
		}
	}
	return all
}

// TestSidebandShortPayloadFailsTheRun: a peer's truncated sideband payload
// (the loss sum under a plain context, the cancel poll under a cancellable
// one) fails the run with an error naming the peer instead of crashing the
// process.
func TestSidebandShortPayloadFailsTheRun(t *testing.T) {
	ds := synthetic.MustLoad("tiny", synthetic.Scale(1))
	dep := testDeploy(ds, 2, GCN)
	cfg := confTrainConfig(CodecFP32)
	cfg.transportFactory = brokenFactory(func(d Transport) Transport { return shortGatherDev{d} })
	// Every device sees a short payload; whichever fails first is reported.
	check := func(label string, err error) {
		t.Helper()
		if err == nil || !(strings.Contains(err.Error(), "rank 0: sideband payload from rank 1 is 7 bytes, want 8") ||
			strings.Contains(err.Error(), "rank 1: sideband payload from rank 0 is 7 bytes, want 8")) {
			t.Errorf("%s: err = %v, want a short sideband payload naming the peer", label, err)
		}
	}
	_, err := TrainDeployed(dep, cfg, nil)
	check("plain context", err)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = TrainDeployedCtx(ctx, dep, cfg, nil)
	check("cancellable context", err)
}

// TestFinalEvalSharesOneForwardPass pins the evaluation schedule of a run:
// one full-precision forward pass per evaluated epoch, with a raw halo
// exchange at every layer but the first (layer 0 reads the Deployment's
// static aggregate of the input features), and the final test/val scores
// read the last epoch's pass instead of repeating it twice on unchanged
// parameters. Evaluation consumes no RNG and raw collectives are
// uncharged, so the scores cannot depend on how often the run evaluated.
// Both runs share one Deployment, whose static data the first builds and
// the second reuses.
func TestFinalEvalSharesOneForwardPass(t *testing.T) {
	ds := synthetic.MustLoad("tiny", 1)
	inprocess, err := LookupTransport(TransportInprocess)
	if err != nil {
		t.Fatal(err)
	}
	dep := testDeploy(ds, 3, GCN)
	train := func(evalEvery int) (*metrics.RunResult, int64) {
		cfg := tinyConfig(CodecAdaptive)
		cfg.EvalEvery = evalEvery
		var rt *rawCountingRuntime
		cfg.transportFactory = func(spec TransportSpec) Runtime {
			rt = &rawCountingRuntime{Runtime: inprocess(spec)}
			return rt
		}
		res, err := TrainDeployed(dep, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res, rt.rawAll2All.Load()
	}
	exchanges := int64(tinyConfig(CodecAdaptive).Layers - 1)

	// 12 epochs, eval every 4: epochs 0, 4, 8 and the last one, 11.
	every4, raw := train(4)
	if want := 4 * exchanges; raw != want {
		t.Errorf("eval every 4: %d raw halo exchanges, want %d (4 evaluated epochs × %d layers above the first, final scores included)", raw, want, exchanges)
	}
	if last := every4.Epochs[len(every4.Epochs)-1]; every4.FinalVal != last.ValAcc {
		t.Errorf("FinalVal %v differs from the last epoch's ValAcc %v", every4.FinalVal, last.ValAcc)
	}
	// The static data's blocks, by address: a rebuild would replace them.
	static := func() (blocks []any) {
		for r := range dep.st.devices {
			d := &dep.st.devices[r]
			blocks = append(blocks, d.ld, d.agg0, &d.ranges0[0])
		}
		return blocks
	}
	built := static()

	// Evaluation off: the final scores need exactly one pass of their own.
	never, raw := train(0)
	if raw != exchanges {
		t.Errorf("eval off: %d raw halo exchanges, want %d (one final pass)", raw, exchanges)
	}
	if never.FinalTest != every4.FinalTest || never.FinalVal != every4.FinalVal {
		t.Errorf("final scores depend on the eval schedule: test %v vs %v, val %v vs %v",
			never.FinalTest, every4.FinalTest, never.FinalVal, every4.FinalVal)
	}
	for i := range never.Epochs {
		if never.Epochs[i].Loss != every4.Epochs[i].Loss {
			t.Fatalf("epoch %d: loss depends on the eval schedule", i)
		}
	}
	if len(built) != 3*3 || !slices.Equal(static(), built) {
		t.Errorf("the second run on the Deployment rebuilt its static data")
	}
}

// TestLayerZeroHoldsNoInputGradient walks one device's model through a
// forward and a backward pass the way worker.backward does and then looks
// inside every layer's Linear: the input-gradient scratch (rows × in floats,
// the largest block of the layer) exists from layer 1 up and not in layer 0.
func TestLayerZeroHoldsNoInputGradient(t *testing.T) {
	ds := synthetic.MustLoad("tiny", 1)
	for _, kind := range []ModelKind{GCN, GraphSAGE} {
		cfg := tinyConfig(CodecFP32)
		cfg.Model, cfg.Layers = kind, 3
		lg := testDeploy(ds, 2, kind).Locals[0]
		dm := newDeviceModel(&cfg, lg, ds.Features.Cols, ds.NumClasses, timing.Default())
		rng := tensor.NewRNG(1)
		h := tensor.New(lg.NumLocal, ds.Features.Cols)
		h.FillUniform(rng, -1, 1)
		for _, lay := range dm.layers {
			xFull := tensor.New(lg.NumLocal+lg.NumHalo, lay.inDim)
			copy(xFull.Data, h.Data)
			h = lay.forward(lg, xFull, rng, true)
		}
		d := tensor.New(lg.NumLocal, ds.NumClasses)
		d.FillUniform(rng, -1, 1)
		for l := cfg.Layers - 1; l >= 0; l-- {
			dxFull := dm.layers[l].backward(lg, d)
			if l > 0 {
				d = dxFull.RowSlice(0, lg.NumLocal)
			} else if dxFull != nil {
				t.Errorf("%v: layer 0 returned an input gradient", kind)
			}
		}
		for l, lay := range dm.layers {
			held := !reflect.ValueOf(lay.lin).Elem().FieldByName("dx").IsNil()
			if held != (l > 0) {
				t.Errorf("%v: layer %d's Linear holds an input gradient: %v, want %v", kind, l, held, l > 0)
			}
		}
	}
}

// featureWatchCodec counts the layer-0 forward exchanges whose xFull does
// not hold, in its local rows, exactly the features it is handed next to it.
type featureWatchCodec struct {
	MessageCodec
	seen, stale *atomic.Int64
}

func (c featureWatchCodec) Forward(env *ExchangeEnv, epoch, l int, h, xFull *tensor.Matrix) error {
	if l == 0 {
		c.seen.Add(1)
		for i, v := range h.Data {
			if math.Float32bits(xFull.Data[i]) != math.Float32bits(v) {
				c.stale.Add(1)
				break
			}
		}
	}
	return c.MessageCodec.Forward(env, epoch, l, h, xFull)
}

// TestLayerZeroFeaturesSurviveEveryPass: worker.forward copies the device's
// features into layer 0's xFull once, when it allocates it. They must still
// be there at every later training pass — after evaluation passes; after
// a crashed epoch, which runs once; and under
// pipegcn, which fills halo rows from a cache and receives into scratch.
func TestLayerZeroFeaturesSurviveEveryPass(t *testing.T) {
	const parts = 4
	dep := testDeploy(synthetic.MustLoad("tiny", 1), parts, GCN)
	for _, tc := range []struct {
		codec  string
		faults chaos.Spec
		passes int64 // training passes per device
	}{
		{CodecFP32, chaos.Spec{Seed: 5, CrashEpoch: 3, RestartPenalty: 50}, 6},
		{CodecPipeGCN, chaos.Spec{}, 6},
	} {
		inner, err := LookupCodec(tc.codec)
		if err != nil {
			t.Fatal(err)
		}
		var seen, stale atomic.Int64
		cfg := confTrainConfig(tc.codec) // 6 epochs, evaluation every 3
		cfg.Faults = tc.faults
		cfg.codecFactory = func(env *CodecEnv) (MessageCodec, error) {
			c, err := inner(env)
			return featureWatchCodec{c, &seen, &stale}, err
		}
		confTrain(t, dep, cfg)
		if seen.Load() != parts*tc.passes || stale.Load() != 0 {
			t.Errorf("%s: %d of %d layer-0 passes (want %d) found xFull's local rows changed", tc.codec, stale.Load(), seen.Load(), parts*tc.passes)
		}
	}
}

// TestEpochBitsWithAndWithoutAVX2 runs two workloads' shapes — products-sim's
// (100 features, hidden 64, 47 classes, four parts of 400 rows, past tensor's
// goroutine gate: the dense kernels) and halo-reddit's (602 features,
// hidden 16, 41 classes, eight hash parts where nearly every row is a halo
// message: MinMax, the rounder-packer and both de-quantize forms at 602 and
// 16 columns) — twice, with the assembly kernels as the host has them and
// with cpu.AVX2 cleared so that every kernel is its Go loop, and compares as
// bits: through the trainer, AdaQP epochs' losses, accuracies and simulated
// clocks; on one device by hand, a forward and a backward pass's logits,
// loss, input gradient and every parameter gradient. The per-kernel
// differential tests say each kernel equals its loop; this says nothing
// between the kernels depends on which one ran.
func TestEpochBitsWithAndWithoutAVX2(t *testing.T) {
	if !cpu.AVX2 {
		t.Skip("no AVX2 kernels on this host or in this build: both runs would be the Go loops")
	}
	t.Run("products-sim", func(t *testing.T) {
		ds := synthetic.MustLoad("products-sim", 0.1)
		epochBitsWithAndWithoutAVX2(t, func() *Deployment { return testDeploy(ds, 4, GCN) }, 64, 2)
	})
	t.Run("halo-reddit", func(t *testing.T) {
		// Three epochs: AdaQP's bootstrap at the uniform 8-bit tables, then
		// two at the widths solved from its traces.
		ds := synthetic.MustLoad("reddit-sim", 0.1)
		epochBitsWithAndWithoutAVX2(t, func() *Deployment { return Deploy(ds, 8, GCN, partition.Hash) }, 16, 3)
	})
}

// epochBitsWithAndWithoutAVX2 deploys afresh for each side, so each side
// also builds the Deployment's static data (evaluation's layer-0 aggregate,
// the feature ranges) with its own kernels.
func epochBitsWithAndWithoutAVX2(t *testing.T, deploy func() *Deployment, hidden, epochs int) {
	epoch := func() (bits []uint64) {
		dep := deploy()
		ds := dep.Dataset
		add := func(vs ...float64) {
			for _, v := range vs {
				bits = append(bits, math.Float64bits(v))
			}
		}
		addMat := func(m *tensor.Matrix) {
			for _, v := range m.Data {
				bits = append(bits, uint64(math.Float32bits(v)))
			}
		}
		cfg := DefaultConfig()
		cfg.Codec, cfg.Hidden, cfg.Epochs, cfg.EvalEvery, cfg.ReassignPeriod = CodecAdaptive, hidden, epochs, 1, 1
		res, err := TrainDeployed(dep, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range res.Epochs {
			add(e.Loss, e.ValAcc, float64(e.SimTime))
		}
		add(res.FinalTest, float64(res.WallClock))

		lg := dep.Locals[1]
		ld := shardData(ds, lg)
		dm := newDeviceModel(&cfg, lg, ds.Features.Cols, ds.NumClasses, timing.Default())
		rng := tensor.NewRNG(7)
		h := ld.x
		for _, lay := range dm.layers {
			xFull := tensor.New(lg.NumLocal+lg.NumHalo, lay.inDim)
			xFull.FillUniform(rng, -1, 1) // the halo rows
			copy(xFull.Data, h.Data)
			h = lay.forward(lg, xFull, rng, true)
		}
		addMat(h)
		loss, d := nn.SoftmaxCrossEntropyScaled(h, ld.labels, ld.train, 100)
		add(loss)
		for l := cfg.Layers - 1; l >= 0; l-- {
			if dxFull := dm.layers[l].backward(lg, d); l > 0 {
				addMat(dxFull)
				d = dxFull.RowSlice(0, lg.NumLocal)
			}
		}
		for _, p := range dm.params() {
			addMat(p.Grad)
		}
		return bits
	}
	got := epoch()
	defer func() { cpu.AVX2 = true }()
	cpu.AVX2 = false
	want := epoch()
	if len(got) != len(want) {
		t.Fatalf("%d values with the assembly, %d with the Go loops", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("value %d of %d: %#x with the assembly, %#x with the Go loops", i, len(want), got[i], want[i])
		}
	}
}

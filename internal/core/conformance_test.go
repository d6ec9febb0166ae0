package core

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/synthetic"
	"repro/internal/tensor"
	"repro/internal/timing"
)

// TestTransportConformance runs every registered backend through the
// collective-contract suite at three cluster sizes.
func TestTransportConformance(t *testing.T) {
	for _, name := range TransportNames() {
		f, err := LookupTransport(name)
		if err != nil {
			t.Fatal(err)
		}
		// 3 is not a power of two: the all-reduce charge folds a pair.
		for _, parts := range []int{2, 3, 4} {
			vs := ConformTransport(f, parts)
			for _, v := range vs {
				t.Errorf("%s parts=%d: %v", name, parts, v)
			}
		}
	}
}

// confTrainConfig is a small fixed-seed training scenario every backend
// must reproduce bit-for-bit.
func confTrainConfig(codec string) Config {
	cfg := DefaultConfig()
	cfg.Codec = codec
	cfg.Epochs = 6
	cfg.Hidden = 32
	cfg.EvalEvery = 3
	cfg.ReassignPeriod = 2 // exercise AdaQP's gather/scatter re-assignment
	cfg.SancusMaxStale = 2
	return cfg
}

func confTrain(t *testing.T, dep *Deployment, cfg Config) *metrics.RunResult {
	t.Helper()
	res, err := TrainDeployed(dep, cfg, nil)
	if err != nil {
		t.Fatalf("transport %q codec %q: %v", cfg.Transport, cfg.Codec, err)
	}
	return res
}

// TestTransportLossParity trains the same fixed-seed scenario on every
// registered transport with every registered codec and requires
// bit-identical loss curves, epoch sim-times, final accuracy and byte
// accounting.
func TestTransportLossParity(t *testing.T) {
	ds := synthetic.MustLoad("tiny", synthetic.Scale(1))
	dep := testDeploy(ds, 4, GCN)
	for _, codec := range CodecNames() {
		ref := confTrain(t, dep, confTrainConfig(codec))
		for _, name := range TransportNames() {
			if name == TransportInprocess {
				continue
			}
			cfg := confTrainConfig(codec)
			cfg.Transport = name
			got := confTrain(t, dep, cfg)
			compareRuns(t, name+"/"+codec, ref, got, true)
		}
	}
}

// TestOverlapLossParity pins the overlap schedule's core guarantee: with
// TransportOverlap set the SANCUS payload routing is unchanged, so loss
// curves, accuracies and byte ledgers stay bit-identical to the blocking
// schedule — only where the simulated time lands changes.
func TestOverlapLossParity(t *testing.T) {
	ds := synthetic.MustLoad("tiny", synthetic.Scale(1))
	dep := testDeploy(ds, 4, GCN)
	blocking := confTrain(t, dep, confTrainConfig(CodecSancus))
	ovl := confTrainConfig(CodecSancus)
	ovl.TransportOverlap = true
	compareRuns(t, "overlap vs blocking", blocking, confTrain(t, dep, ovl), false)
}

// TestOverlapKnobIsSancusOnly pins the knob's scope: only SANCUS's
// broadcast reads TransportOverlap. AdaQP's and PipeGCN's overlap is their
// codec's own schedule, always on, so for them (and for fp32) the knob
// changes no loss, clock or byte.
func TestOverlapKnobIsSancusOnly(t *testing.T) {
	ds := synthetic.MustLoad("tiny", synthetic.Scale(1))
	dep := testDeploy(ds, 4, GCN)
	for _, codec := range []string{CodecFP32, CodecAdaptive, CodecPipeGCN} {
		off := confTrain(t, dep, confTrainConfig(codec))
		cfg := confTrainConfig(codec)
		cfg.TransportOverlap = true
		on := confTrain(t, dep, cfg)
		compareRuns(t, codec+" overlap on vs off", off, on, true)
		if !slices.Equal(on.PerDevice, off.PerDevice) {
			t.Errorf("%s: overlap on per-device time %v, off %v", codec, on.PerDevice, off.PerDevice)
		}
	}
}

// TestOverlapReducesWallClock: hiding broadcast wire time behind the
// central-graph forward compute must strictly shorten the simulated
// epoch, and the hidden seconds must be visible under the Overlap phase.
func TestOverlapReducesWallClock(t *testing.T) {
	ds := synthetic.MustLoad("tiny", synthetic.Scale(1))
	dep := testDeploy(ds, 4, GCN)
	blocking := confTrain(t, dep, confTrainConfig(CodecSancus))
	cfg := confTrainConfig(CodecSancus)
	cfg.TransportOverlap = true
	overlap := confTrain(t, dep, cfg)
	if overlap.WallClock >= blocking.WallClock {
		t.Errorf("overlap wall-clock %v not below blocking %v", overlap.WallClock, blocking.WallClock)
	}
	if overlap.OverlapSeconds() <= 0 {
		t.Error("overlap run recorded no hidden wire time")
	}
}

// TestOverlapChaosLossParity: the overlap schedule composed with fault
// injection must still leave training results bit-identical on every
// backend — faults and overlap both perturb simulated time only.
func TestOverlapChaosLossParity(t *testing.T) {
	ds := synthetic.MustLoad("tiny", synthetic.Scale(1))
	dep := testDeploy(ds, 4, GCN)
	base := confTrainConfig(CodecSancus)
	base.Faults = chaos.Spec{Seed: 14, Stragglers: 2, SlowFactor: 2, LinkFactor: 3, FailRate: 0.3, MaxRetries: 3, Backoff: 0.02}
	ref := confTrain(t, dep, base)
	for _, name := range TransportNames() {
		cfg := base
		cfg.Transport = name
		cfg.TransportOverlap = true
		compareRuns(t, name+"/overlap+chaos", ref, confTrain(t, dep, cfg), false)
	}
}

// compareRuns requires bit-identical convergence; withTime additionally
// requires identical simulated clocks.
// It reports via runDivergence so the conformance suite and the parity
// tests share one definition of "bit-identical".
func compareRuns(t *testing.T, label string, ref, got *metrics.RunResult, withTime bool) {
	t.Helper()
	if desc := runDivergence(ref, got, withTime); desc != "" {
		t.Errorf("%s: runs diverged (%s)", label, desc)
	}
}

// ---- deliberately broken transports: the conformance suite must catch
// each class of contract violation ----

// wrappedRuntime lets a stub intercept individual Transport methods while
// delegating everything else to the in-process backend.
type wrappedRuntime struct {
	Runtime
	wrap func(Transport) Transport
}

func (w wrappedRuntime) Run(seed uint64, body func(Transport) error) error {
	return w.Runtime.Run(seed, func(dev Transport) error { return body(w.wrap(dev)) })
}

func brokenFactory(wrap func(Transport) Transport) RuntimeFactory {
	return func(spec TransportSpec) Runtime {
		ref, err := LookupTransport(TransportInprocess)
		if err != nil {
			panic(err)
		}
		return wrappedRuntime{Runtime: ref(spec), wrap: wrap}
	}
}

// noBarrierDev drops Barrier entirely: no rendezvous, no clock alignment.
type noBarrierDev struct{ Transport }

func (noBarrierDev) Barrier() {}

// unchargedDev moves all2all data correctly but charges no simulated time
// (it routes the collective through the metrics sideband).
type unchargedDev struct{ Transport }

func (d unchargedDev) RingAll2All(p [][]byte) [][]byte { return d.Transport.RawAll2All(p) }

// scratchDev violates receiver ownership: it copies results into a
// per-device scratch it reuses on the next collective.
type scratchDev struct {
	Transport
	scratch [][]byte
}

func (d *scratchDev) RingAll2All(p [][]byte) [][]byte {
	recv := d.Transport.RingAll2All(p)
	if d.scratch == nil {
		d.scratch = make([][]byte, len(recv))
	}
	out := make([][]byte, len(recv))
	for i, b := range recv {
		if b == nil {
			continue
		}
		if cap(d.scratch[i]) < len(b) {
			d.scratch[i] = make([]byte, len(b))
		}
		out[i] = d.scratch[i][:len(b)]
		copy(out[i], b)
	}
	return out
}

// eagerWaitDev fakes the split-phase contract by running the blocking
// collective inside Start: immediate Waits look right, but compute issued
// between Start and Wait hides nothing — the wire time was already paid.
type eagerWaitDev struct{ Transport }

type eagerPending struct{ out []byte }

func (p eagerPending) Wait() []byte { return p.out }

func (d eagerWaitDev) StartBroadcast(root int, payload []byte) PendingCollective {
	return eagerPending{d.Transport.BroadcastBytes(root, payload)}
}

func (d eagerWaitDev) StartScatter(root int, payloads [][]byte) PendingCollective {
	return eagerPending{d.Transport.ScatterBytes(root, payloads)}
}

// lateWaitDev fakes it the other way: Start records the arguments and Wait
// runs the blocking collective from the current clock — so nothing issued
// in between is credited as overlap and the wire time is charged late.
type lateWaitDev struct{ Transport }

type lateBroadcast struct {
	d       Transport
	root    int
	payload []byte
}

func (p lateBroadcast) Wait() []byte { return p.d.BroadcastBytes(p.root, p.payload) }

type lateScatter struct {
	d        Transport
	root     int
	payloads [][]byte
}

func (p lateScatter) Wait() []byte { return p.d.ScatterBytes(p.root, p.payloads) }

func (d lateWaitDev) StartBroadcast(root int, payload []byte) PendingCollective {
	return lateBroadcast{d.Transport, root, payload}
}

func (d lateWaitDev) StartScatter(root int, payloads [][]byte) PendingCollective {
	return lateScatter{d.Transport, root, payloads}
}

// ringChargeDev sums correctly but still charges every all-reduce as the
// ring, 2(N−1)·(θ·B/N + γ), whichever schedule is cheaper.
type ringChargeDev struct{ Transport }

func (d ringChargeDev) AllReduceSum(ms []*tensor.Matrix) {
	d.Transport.AllReduceSum(ms)
	n, bytes := d.Size(), 0
	for _, m := range ms {
		bytes += 4 * len(m.Data)
	}
	model := d.Model()
	ring := timing.Seconds(2*(n-1)) * timing.Seconds(model.Theta(0, 1)*float64(bytes)/float64(n)+model.Gamma())
	d.Clock().Advance(timing.Comm, ring-cluster.AllReduceTime(model, n, bytes))
}

// sumGatherDev delivers a gather correctly but charges it as the sum of
// the incoming transfers instead of the slowest one.
type sumGatherDev struct{ Transport }

func (d sumGatherDev) GatherBytes(root int, payload []byte) [][]byte {
	all := d.RawAllGather(payload)
	d.Barrier()
	var sum timing.Seconds
	for src, p := range all {
		if src != root {
			sum += d.Model().TransferTime(src, root, len(p))
		}
	}
	d.Clock().Advance(timing.Comm, sum)
	if d.Rank() != root {
		return nil
	}
	return all
}

// scatterBroadcastDev routes a broadcast through ScatterBytes, so it is
// charged as the slowest outgoing transfer instead of their sum.
type scatterBroadcastDev struct{ Transport }

func (d scatterBroadcastDev) BroadcastBytes(root int, payload []byte) []byte {
	var slices [][]byte
	if d.Rank() == root {
		slices = make([][]byte, d.Size())
		for i := range slices {
			slices[i] = payload
		}
	}
	return d.ScatterBytes(root, slices)
}

func TestConformanceCatchesBrokenTransports(t *testing.T) {
	cases := []struct {
		name      string
		factory   RuntimeFactory
		wantCheck string
	}{
		{"no-op barrier", brokenFactory(func(d Transport) Transport { return noBarrierDev{d} }), "barrier"},
		{"uncharged all2all", brokenFactory(func(d Transport) Transport { return unchargedDev{d} }), "all2all-clock-charge"},
		{"ring-charged all-reduce", brokenFactory(func(d Transport) Transport { return ringChargeDev{d} }), "allreduce-clock-charge"},
		{"recycled buffers", brokenFactory(func(d Transport) Transport { return &scratchDev{Transport: d} }), "payload-ownership"},
		{"eager-wait split-phase", brokenFactory(func(d Transport) Transport { return eagerWaitDev{d} }), "overlap-charge"},
		{"late-wait split-phase", brokenFactory(func(d Transport) Transport { return lateWaitDev{d} }), "overlap-charge"},
		{"gather charged as the sum", brokenFactory(func(d Transport) Transport { return sumGatherDev{d} }), "gather-clock-charge"},
		{"broadcast routed through scatter", brokenFactory(func(d Transport) Transport { return scatterBroadcastDev{d} }), "broadcast-clock-charge"},
	}
	for _, tc := range cases {
		vs := ConformTransport(tc.factory, 4)
		found := false
		for _, v := range vs {
			if strings.HasPrefix(v.Check, tc.wantCheck) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: conformance missed the violation (want a %q check); got %v", tc.name, tc.wantCheck, vs)
		}
	}
}

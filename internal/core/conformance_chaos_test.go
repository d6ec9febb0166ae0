package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/synthetic"
	"repro/internal/tensor"
	"repro/internal/timing"
)

// TestTransportChaosConformance runs every registered backend through the
// chaos-mode conformance suite at three cluster sizes.
func TestTransportChaosConformance(t *testing.T) {
	for _, name := range TransportNames() {
		f, err := LookupTransport(name)
		if err != nil {
			t.Fatal(err)
		}
		// 3 is not a power of two: the all-reduce charge folds a pair.
		for _, parts := range []int{2, 3, 4} {
			for _, v := range ConformTransportChaos(f, parts) {
				t.Errorf("%s parts=%d: %v", name, parts, v)
			}
		}
	}
}

// lossParity compares everything except the clocks: the loss curve, the
// accuracies and the byte ledger.
func lossParity(t *testing.T, label string, ref, got *metrics.RunResult) {
	t.Helper()
	if desc := runDivergence(ref, got, false); desc != "" {
		t.Errorf("%s: faulted run diverged from fault-free (%s)", label, desc)
	}
}

// TestChaosSlowdownDeterminism pins the fault-injection contract on both
// backends: a slowdown-only plan leaves losses, accuracy and the byte
// ledger bit-identical to the fault-free run, repeated runs are
// bit-identical including clocks, and wall-clock strictly grows.
func TestChaosSlowdownDeterminism(t *testing.T) {
	ds := synthetic.MustLoad("tiny", synthetic.Scale(1))
	dep := Deploy(ds, 4, GCN, partition.Block)
	spec := chaos.Spec{Seed: 3, Stragglers: 2, SlowFactor: 3, LinkFactor: 2}
	ref := confTrain(t, dep, confTrainConfig(CodecFP32))
	for _, tr := range TransportNames() {
		cfg := confTrainConfig(CodecFP32)
		cfg.Transport = tr
		cfg.Faults = spec
		a := confTrain(t, dep, cfg)
		b := confTrain(t, dep, cfg)
		if desc := runDivergence(a, b, true); desc != "" {
			t.Errorf("%s: two identical faulted runs diverged (%s)", tr, desc)
		}
		if desc := runDivergence(ref, a, false); desc != "" {
			t.Errorf("%s: slowdown-only faults changed the results (%s)", tr, desc)
		}
		if a.WallClock <= ref.WallClock {
			t.Errorf("%s: faulted wall-clock %v not above fault-free %v", tr, a.WallClock, ref.WallClock)
		}
		if a.Faults.Stragglers != 2 {
			t.Errorf("%s: reported %d stragglers, want 2", tr, a.Faults.Stragglers)
		}
	}
}

// TestChaosTransientRetries: transient failures charge retries without
// touching results, and the deterministic failure schedule counts the same
// on every backend.
func TestChaosTransientRetries(t *testing.T) {
	ds := synthetic.MustLoad("tiny", synthetic.Scale(1))
	dep := Deploy(ds, 4, GCN, partition.Block)
	spec := chaos.Spec{Seed: 9, FailRate: 0.3, MaxRetries: 2, Backoff: 0.01}
	ref := confTrain(t, dep, confTrainConfig(CodecFP32))
	var retries []int64
	for _, tr := range TransportNames() {
		cfg := confTrainConfig(CodecFP32)
		cfg.Transport = tr
		cfg.Faults = spec
		got := confTrain(t, dep, cfg)
		if desc := runDivergence(ref, got, false); desc != "" {
			t.Errorf("%s: transient failures changed the results (%s)", tr, desc)
		}
		if got.Faults.Retries == 0 {
			t.Errorf("%s: fail rate 0.3 over a full run scheduled no retries", tr)
		}
		if got.Faults.RetryTime <= 0 {
			t.Errorf("%s: %d retries charged no time", tr, got.Faults.Retries)
		}
		retries = append(retries, got.Faults.Retries)
	}
	for i := 1; i < len(retries); i++ {
		if retries[i] != retries[0] {
			t.Errorf("backends disagree on the retry count: %v (schedule must be backend-invariant)", retries)
		}
	}
}

// countingCodec is fp32 plus a count of the forward exchanges this device
// has run, checked against (epoch, layer) before each one: a crash that ran
// an epoch's training part twice, or skipped it, fails the run.
type countingCodec struct {
	MessageCodec
	layers, forwards int
}

// countingConfig is confTrainConfig with cfg.Codec naming a countingCodec
// injected through the factory seam, so it never enters the registry.
func countingConfig() Config {
	cfg := confTrainConfig("counting")
	cfg.codecFactory = func(env *CodecEnv) (MessageCodec, error) {
		c, err := newFP32Codec(env)
		if err != nil {
			return nil, err
		}
		return &countingCodec{MessageCodec: c, layers: env.Cfg.Layers}, nil
	}
	return cfg
}

func (c *countingCodec) Forward(env *ExchangeEnv, epoch, layer int, h, xFull *tensor.Matrix) error {
	if want := epoch*c.layers + layer; c.forwards != want {
		return fmt.Errorf("forward count %d at epoch %d layer %d, want %d", c.forwards, epoch, layer, want)
	}
	c.forwards++
	return c.MessageCodec.Forward(env, epoch, layer, h, xFull)
}

// TestChaosCrashRecovery: a scheduled crash leaves every registered codec's
// loss curve, accuracies and byte ledger bit-identical to the fault-free
// run on every backend, runs the crashed epoch's training part once (the
// counting codec), and counts one crash whose recovery time is the restart
// penalty.
func TestChaosCrashRecovery(t *testing.T) {
	ds := synthetic.MustLoad("tiny", synthetic.Scale(1))
	dep := Deploy(ds, 4, GCN, partition.Block)
	spec := chaos.Spec{Seed: 5, CrashEpoch: 3, RestartPenalty: 50}
	bases := []Config{countingConfig()}
	for _, codec := range CodecNames() {
		bases = append(bases, confTrainConfig(codec))
	}
	for _, base := range bases {
		codec := base.Codec
		ref := confTrain(t, dep, base)
		for _, tr := range TransportNames() {
			cfg := base
			cfg.Transport = tr
			cfg.Faults = spec
			got := confTrain(t, dep, cfg)
			lossParity(t, tr+"/"+codec, ref, got)
			if got.Faults.Crashes != 1 {
				t.Errorf("%s/%s: counted %d crashes, want 1", tr, codec, got.Faults.Crashes)
			}
			if got.Faults.RecoveryTime != 50 {
				t.Errorf("%s/%s: recovery time %v, want the restart penalty 50", tr, codec, got.Faults.RecoveryTime)
			}
		}
	}
}

// TestChaosCrashRecoversPaperCodec: a crash may land anywhere in the
// period cycle of the codecs whose widths move between epochs — on
// adaptive's quantized, traced bootstrap epoch (0), on a tracing epoch (4:
// the assigner then solves from its traces), on the first epoch of a
// period, which random and adaptive ship at the widths re-drawn and solved
// after epoch 4 (5), or on a plain epoch (6) — and the results still equal
// the fault-free run's.
func TestChaosCrashRecoversPaperCodec(t *testing.T) {
	ds := synthetic.MustLoad("tiny", synthetic.Scale(1))
	dep := Deploy(ds, 4, GCN, partition.Block)
	for _, codec := range []string{CodecAdaptive, CodecRandom} {
		base := confTrainConfig(codec)
		base.Epochs, base.ReassignPeriod = 8, 5
		ref := confTrain(t, dep, base)
		for _, epoch := range []int{0, 4, 5, 6} {
			cfg := base
			cfg.Faults = chaos.Spec{Seed: 5, CrashEpoch: epoch, RestartPenalty: 50}
			if epoch == 0 {
				plan, err := chaos.NewPlan(chaos.Spec{Seed: 5, CrashEpoch: 1, RestartPenalty: 50}, 4)
				if err != nil {
					t.Fatal(err)
				}
				plan.CrashEpoch = 0
				cfg.faultPlan = plan
			}
			got := confTrain(t, dep, cfg)
			label := fmt.Sprintf("%s crash at epoch %d", codec, epoch)
			lossParity(t, label, ref, got)
			if got.Faults.Crashes != 1 {
				t.Errorf("%s: counted %d crashes, want 1", label, got.Faults.Crashes)
			}
		}
	}
}

// partProbe records, on rank 0, the simulated clock at which one epoch's
// training part starts (its first Forward) and ends (EpochEnd is the next
// codec call).
type partProbe struct {
	MessageCodec
	epoch      int
	start, end *timing.Seconds
}

func (p partProbe) Forward(env *ExchangeEnv, epoch, l int, h, xFull *tensor.Matrix) error {
	if epoch == p.epoch && l == 0 && env.Dev.Rank() == 0 {
		*p.start = env.Dev.Clock().Now()
	}
	return p.MessageCodec.Forward(env, epoch, l, h, xFull)
}

func (p partProbe) EpochEnd(env *ExchangeEnv, epoch int) error {
	if epoch == p.epoch && env.Dev.Rank() == 0 {
		*p.end = env.Dev.Clock().Now()
	}
	return p.MessageCodec.EpochEnd(env, epoch)
}

// TestChaosCrashCharge pins what a crash costs: from the crash epoch on,
// every epoch ends later than in the run without the crash by exactly the
// crashed epoch's training-part duration (the lost attempt) plus the
// restart penalty. It holds for fp32 and adaptive, without stragglers and
// with one compute straggler that is the crashed rank itself: the penalty
// is downtime, which the straggler's slowdown does not stretch.
func TestChaosCrashCharge(t *testing.T) {
	dep := deployTiny(t, 4)
	const crashEpoch, penalty = 3, 50
	for _, codec := range []string{CodecFP32, CodecAdaptive} {
		inner, err := LookupCodec(codec)
		if err != nil {
			t.Fatal(err)
		}
		for _, faults := range []chaos.Spec{{Seed: 5}, {Seed: 6, Stragglers: 1, SlowFactor: 3}} {
			label := fmt.Sprintf("%s stragglers=%d", codec, faults.Stragglers)
			var start, end timing.Seconds
			cfg := confTrainConfig(codec)
			cfg.Faults = faults
			cfg.codecFactory = func(env *CodecEnv) (MessageCodec, error) {
				c, err := inner(env)
				return partProbe{c, crashEpoch, &start, &end}, err
			}
			ref := confTrain(t, dep, cfg)
			cfg.codecFactory = nil
			cfg.Faults.CrashEpoch, cfg.Faults.RestartPenalty = crashEpoch, penalty
			if plan, err := chaos.NewPlan(cfg.Faults, 4); err != nil || plan.StragglerCount() != faults.Stragglers ||
				(faults.Stragglers > 0 && plan.Slowdown[plan.CrashRank] <= 1) {
				t.Fatalf("%s: plan %v (err %v) is not the one this test describes", label, plan, err)
			}
			got := confTrain(t, dep, cfg)
			if end <= start {
				t.Fatalf("%s: training part of epoch %d measured as [%v, %v]", label, crashEpoch, start, end)
			}
			for e := range got.Epochs {
				want := ref.Epochs[e].SimTime
				if e >= crashEpoch {
					want += end - start + penalty
				}
				if d := math.Abs(float64(got.Epochs[e].SimTime - want)); d > 1e-12*float64(want) {
					t.Errorf("%s: epoch %d ends at %.17g, want %.17g (fault-free + lost part %v + penalty %v)",
						label, e, float64(got.Epochs[e].SimTime), float64(want), end-start, penalty)
				}
			}
		}
	}
}

// TestChaosCrashKeepsFailureSchedule: a crash consumes no index of the
// transient-failure schedule — the lost attempt is charged from the clock,
// not re-run — so under FailRate 0.2 every epoch after the crash advances
// the clock by what it advances it in the run without the crash and
// retries as many collectives. Per-epoch retry counts are read from runs
// cut after each epoch: an n-epoch fp32 run is the prefix of a longer one.
func TestChaosCrashKeepsFailureSchedule(t *testing.T) {
	dep := deployTiny(t, 4)
	const crashEpoch = 2
	run := func(epochs int, crash bool) *metrics.RunResult {
		cfg := confTrainConfig(CodecFP32)
		cfg.Epochs = epochs
		cfg.Faults = chaos.Spec{Seed: 5, FailRate: 0.2}
		if crash {
			cfg.Faults.CrashEpoch, cfg.Faults.RestartPenalty = crashEpoch, 50
		}
		return confTrain(t, dep, cfg)
	}
	epochs := confTrainConfig(CodecFP32).Epochs
	ref, got := run(epochs, false), run(epochs, true)
	tol := 1e-12 * float64(got.WallClock)
	for e := crashEpoch + 1; e < epochs; e++ {
		want := ref.Epochs[e].SimTime - ref.Epochs[e-1].SimTime
		if d := got.Epochs[e].SimTime - got.Epochs[e-1].SimTime; math.Abs(float64(d-want)) > tol {
			t.Errorf("epoch %d advanced the clock by %.17g after the crash, %.17g without it", e, float64(d), float64(want))
		}
	}
	var through []int64 // retries through the crash epoch and each later one
	for n := crashEpoch + 1; n <= epochs; n++ {
		a, b := ref, got
		if n < epochs {
			a, b = run(n, false), run(n, true)
		}
		if a.Faults.Retries != b.Faults.Retries {
			t.Errorf("through epoch %d: %d retries with the crash, %d without", n-1, b.Faults.Retries, a.Faults.Retries)
		}
		through = append(through, a.Faults.Retries)
	}
	if through[len(through)-1] == through[0] {
		t.Fatalf("no transient failure after epoch %d: the schedule check compared nothing", crashEpoch)
	}
}

// ---- deliberately broken transports: chaos mode must catch each class
// of under-fault contract violation ----

// corruptPayloadDev flips a byte of every received all2all payload.
type corruptPayloadDev struct{ Transport }

func (d corruptPayloadDev) RingAll2All(p [][]byte) [][]byte {
	recv := d.Transport.RingAll2All(p)
	for _, b := range recv {
		if len(b) > 0 {
			b[0] ^= 0xff
		}
	}
	return recv
}

// doubleSendDev moves every all2all payload twice, doubling the ledger.
type doubleSendDev struct{ Transport }

func (d doubleSendDev) RingAll2All(p [][]byte) [][]byte {
	dup := make([][]byte, len(p))
	for i, b := range p {
		if b != nil {
			dup[i] = append([]byte(nil), b...)
		}
	}
	d.Transport.RingAll2All(dup)
	return d.Transport.RingAll2All(p)
}

// lateCorruptDev perturbs allreduce results only once the simulated clock
// passes a threshold no clean tiny run reaches — the corruption triggers
// exclusively after a crash's restart penalty inflates the clocks, so only
// the crash-recovery check can see it.
type lateCorruptDev struct{ Transport }

func (d lateCorruptDev) AllReduceSum(ms []*tensor.Matrix) {
	d.Transport.AllReduceSum(ms)
	if d.Clock().Now() > 500 {
		for _, m := range ms {
			if len(m.Data) > 0 {
				m.Data[0] += 1
			}
		}
	}
}

func TestChaosConformanceCatchesBrokenTransports(t *testing.T) {
	cases := []struct {
		name      string
		factory   RuntimeFactory
		wantCheck string
	}{
		{"corrupted payloads", brokenFactory(func(d Transport) Transport { return corruptPayloadDev{d} }), "chaos-delivery"},
		{"recycled buffers", brokenFactory(func(d Transport) Transport { return &scratchDev{Transport: d} }), "chaos-ownership"},
		{"no-op barrier", brokenFactory(func(d Transport) Transport { return noBarrierDev{d} }), "chaos-clock-parity"},
		{"uncharged all2all", brokenFactory(func(d Transport) Transport { return unchargedDev{d} }), "chaos-retry-charge"},
		{"double-moved payloads", brokenFactory(func(d Transport) Transport { return doubleSendDev{d} }), "chaos-byte-accounting"},
		{"post-restart corruption", brokenFactory(func(d Transport) Transport { return lateCorruptDev{d} }), "chaos-crash-recovery"},
	}
	for _, tc := range cases {
		if raceEnabled && tc.wantCheck == "chaos-ownership" {
			// The recycled-buffer stub's violation is a data race by
			// construction once real training runs over it: the race
			// detector reports it before the ownership check can, and
			// fails the test for the very bug the stub plants.
			continue
		}
		vs := ConformTransportChaos(tc.factory, 4)
		found := false
		for _, v := range vs {
			if strings.HasPrefix(v.Check, tc.wantCheck) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: chaos conformance missed the violation (want a %q check); got %v", tc.name, tc.wantCheck, vs)
		}
	}
}

// TestFaultPlanLinkSlowdownChargesMore pins that link stragglers actually
// pay on the wire: a link-slowed plan's wall-clock exceeds the same plan
// with links intact.
func TestFaultPlanLinkSlowdownChargesMore(t *testing.T) {
	ds := synthetic.MustLoad("tiny", synthetic.Scale(1))
	dep := Deploy(ds, 4, GCN, partition.Block)
	run := func(link float64) timing.Seconds {
		cfg := confTrainConfig(CodecFP32)
		cfg.Faults = chaos.Spec{Seed: 4, Stragglers: 2, SlowFactor: 1.5, LinkFactor: link}
		return confTrain(t, dep, cfg).WallClock
	}
	if slow, fast := run(8), run(1); slow <= fast {
		t.Errorf("link-slowed wall-clock %v not above link-intact %v", slow, fast)
	}
}

package core

import (
	"fmt"
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

// lossParity compares everything except the byte ledger (a crashed run's
// doomed epoch genuinely re-moves bytes) and the clocks.
func lossParity(t *testing.T, label string, ref, got *metrics.RunResult) {
	t.Helper()
	cmp := *got
	cmp.BytesMoved = ref.BytesMoved
	if desc := runDivergence(ref, &cmp, false); desc != "" {
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

// countingCodec is fp32 plus one piece of real cross-epoch state: the
// number of forward exchanges this device has run. Forward checks the
// count against (epoch, layer) before advancing it, so a crash whose
// restore does not roll the count back fails the replayed epoch.
type countingCodec struct {
	MessageCodec
	layers, forwards int
	// restore is false in the broken twin, whose RestoreCheckpoint is a
	// no-op.
	restore bool
}

// countingConfig is confTrainConfig with cfg.Codec naming a countingCodec
// injected through the factory seam, so it never enters the registry.
func countingConfig(restore bool) Config {
	cfg := confTrainConfig("counting")
	cfg.codecFactory = func(env *CodecEnv) (MessageCodec, error) {
		c, err := newFP32Codec(env)
		if err != nil {
			return nil, err
		}
		return &countingCodec{MessageCodec: c, layers: env.Cfg.Layers, restore: restore}, nil
	}
	return cfg
}

func (c *countingCodec) Stateful() bool { return true }

func (c *countingCodec) CheckpointState() any { return c.forwards }

func (c *countingCodec) RestoreCheckpoint(state any) {
	if c.restore {
		c.forwards = state.(int)
	}
}

func (c *countingCodec) Forward(env *ExchangeEnv, epoch, layer int, h, xFull *tensor.Matrix) error {
	if want := epoch*c.layers + layer; c.forwards != want {
		return fmt.Errorf("forward count %d at epoch %d layer %d, want %d", c.forwards, epoch, layer, want)
	}
	c.forwards++
	return c.MessageCodec.Forward(env, epoch, layer, h, xFull)
}

// TestChaosCrashRecovery: a scheduled crash replays the doomed epoch bit
// for bit on every backend — including through a codec whose checkpoint
// carries state the replay depends on — and counts exactly one crash.
func TestChaosCrashRecovery(t *testing.T) {
	ds := synthetic.MustLoad("tiny", synthetic.Scale(1))
	dep := Deploy(ds, 4, GCN, partition.Block)
	spec := chaos.Spec{Seed: 5, CrashEpoch: 3, RestartPenalty: 50}
	for _, base := range []Config{confTrainConfig(CodecFP32), countingConfig(true)} {
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

// TestChaosCrashCatchesLostCodecState is TestChaosCrashRecovery's mutation
// check: the counting codec's twin ignores its checkpoint, so the replayed
// epoch must fail instead of passing as a clean recovery.
func TestChaosCrashCatchesLostCodecState(t *testing.T) {
	ds := synthetic.MustLoad("tiny", synthetic.Scale(1))
	dep := Deploy(ds, 4, GCN, partition.Block)
	for _, tr := range TransportNames() {
		cfg := countingConfig(false)
		cfg.Transport = tr
		cfg.Faults = chaos.Spec{Seed: 5, CrashEpoch: 3, RestartPenalty: 50}
		if _, err := TrainDeployed(dep, cfg, nil); err == nil || !strings.Contains(err.Error(), "forward count") {
			t.Errorf("%s: crash over a codec that drops its checkpoint: got err %v, want the forward-count check", tr, err)
		}
	}
}

// TestChaosCrashRecoversPaperCodec: the quantizing codec's cross-epoch state
// (width tables, traces) moves only in EpochEnd, which a doomed epoch never
// reaches, so its empty checkpoint — with the device's rounding stream, which
// the worker saves next to the dropout stream — replays a crash bit for bit,
// whether the crash lands on adaptive's quantized, traced bootstrap epoch
// (0), on a tracing epoch (4: the replay rewrites the traces the assigner
// then solves from), on the first epoch of a period, which random and
// adaptive ship at the widths re-drawn and solved after epoch 4 (5), or on a
// plain epoch (6).
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

// TestChaosCrashRejectsUncheckpointableCodec: a stateful codec without
// checkpoint support cannot replay a crashed epoch; scheduling a crash
// with one must fail loudly instead of silently diverging.
func TestChaosCrashRejectsUncheckpointableCodec(t *testing.T) {
	ds := synthetic.MustLoad("tiny", synthetic.Scale(1))
	dep := Deploy(ds, 4, GCN, partition.Block)
	for _, codec := range []string{CodecPipeGCN, CodecSancus} {
		cfg := confTrainConfig(codec)
		cfg.Faults = chaos.Spec{Seed: 5, CrashEpoch: 3}
		_, err := TrainDeployed(dep, cfg, nil)
		if err == nil || !strings.Contains(err.Error(), "checkpoint") {
			t.Errorf("%s: crash plan with stateful uncheckpointable codec: got err %v, want checkpoint-support rejection", codec, err)
		}
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

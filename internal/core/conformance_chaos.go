package core

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/partition"
	"repro/internal/synthetic"
	"repro/internal/timing"
)

// This file is the chaos mode of the transport conformance suite: the
// collective contract re-verified while a chaos.FaultPlan injects
// stragglers, transient collective failures and a device crash. The fault
// wrapper (chaos_transport.go) is part of the contract surface — a backend
// that conforms cleanly but breaks under injection (wrong payloads once
// clocks skew, recycled buffers during retries, missing charges the
// wrapper depends on) is still unfit to train on. The checks:
//
//   - chaos-delivery / chaos-ownership: payload delivery and receiver
//     buffer ownership must survive every fault plan unchanged — faults
//     perturb simulated time, never data.
//   - chaos-clock-parity / chaos-byte-accounting: the scripted workload
//     under each plan must charge exactly what the wrapped in-process
//     reference charges, and the byte ledger must equal the fault-free
//     ledger (retries re-charge time, not bytes).
//   - chaos-retry-charge: the transient-failure schedule's exact cost —
//     per failed attempt, the lost transfer re-charged to Comm plus the
//     exponential backoff charged to Idle — verified against a hand
//     computation on a single collective.
//   - chaos-crash-recovery: a full training run with a scheduled crash
//     must match the fault-free run bit for bit — loss curve, final
//     accuracy and byte ledger — while wall-clock grows by the lost
//     attempt and the restart downtime.

// chaosConformPlans is the fault-plan matrix every backend must survive:
// compute stragglers, link stragglers, transient failures, and all three
// at once.
func chaosConformPlans() []struct {
	Name string
	Spec chaos.Spec
} {
	return []struct {
		Name string
		Spec chaos.Spec
	}{
		{"straggler", chaos.Spec{Seed: 11, Stragglers: 1, SlowFactor: 3}},
		{"link", chaos.Spec{Seed: 12, Stragglers: 2, SlowFactor: 2, LinkFactor: 4}},
		{"transient", chaos.Spec{Seed: 13, FailRate: 0.4, MaxRetries: 2, Backoff: 0.01}},
		{"combined", chaos.Spec{Seed: 14, Stragglers: 2, SlowFactor: 2, LinkFactor: 3, FailRate: 0.3, MaxRetries: 3, Backoff: 0.02}},
	}
}

// ConformTransportChaos verifies a runtime backend against the Transport
// contract under fault injection with parts devices. It returns nil when
// the backend conforms; each Violation pinpoints a clause broken under
// faults. parts >= 2 is required to exercise cross-device traffic.
func ConformTransportChaos(f RuntimeFactory, parts int) []Violation {
	if parts < 2 {
		return []Violation{{Check: "setup", Detail: fmt.Sprintf("chaos conformance needs parts >= 2, got %d", parts)}}
	}
	col := &vioCollector{}
	for _, pc := range chaosConformPlans() {
		plan, err := chaos.NewPlan(pc.Spec, parts)
		if err != nil {
			col.addf("setup", "building %s plan: %v", pc.Name, err)
			continue
		}
		checkChaosDelivery(f, parts, plan, pc.Name, col)
		checkChaosParity(f, parts, plan, pc.Name, col)
	}
	checkChaosRetryCharge(f, parts, col)
	checkChaosCrashRecovery(f, parts, col)
	return col.v
}

// checkChaosDelivery: two rounds of RingAll2All under the plan must
// deliver exact payloads and leave the first round's buffers untouched —
// injection must never corrupt data or recycle receiver-owned memory.
func checkChaosDelivery(f RuntimeFactory, parts int, plan *chaos.FaultPlan, name string, col *vioCollector) {
	runBody(faultFactory(f, plan, nil), parts, col, func(dev Transport) error {
		ringRounds(dev, col, "chaos-delivery", "chaos-ownership", "plan "+name, func() {})
		return nil
	})
}

// checkChaosParity runs the scripted mixed-collective workload under the
// plan on the candidate and on the in-process backend — both through the
// same fault wrapper — and requires identical per-device clocks per
// category. The byte ledger must additionally equal the fault-free
// reference's: faults charge simulated time only, so retries re-charge
// time, not bytes.
func checkChaosParity(f RuntimeFactory, parts int, plan *chaos.FaultPlan, name string, col *vioCollector) {
	ref, err := LookupTransport(TransportInprocess)
	if err != nil {
		col.addf("chaos-clock-parity", "no in-process backend registered: %v", err)
		return
	}
	cand := runBody(faultFactory(f, plan, nil), parts, col, conformScript)
	want := runBody(faultFactory(ref, plan, nil), parts, col, conformScript)
	clean := runBody(ref, parts, col, conformScript)
	for r, ck := range want.Clocks() {
		compareClock(col, "chaos-clock-parity", "plan "+name, r, cand.Clocks()[r], ck)
	}
	compareLedger(col, "chaos-byte-accounting", "plan "+name+" vs fault-free", cand.BytesMoved(), clean.BytesMoved())
}

// checkChaosRetryCharge verifies the transient-failure cost model exactly:
// one RingAll2All with no compute skew, a failure-only plan, and the
// expected clocks computed by hand — per scheduled failure the collective's
// Comm charge repeats and the backoff doubles into Idle. The expected
// values replicate the wrapper's accumulation order so equality is
// bitwise.
func checkChaosRetryCharge(f RuntimeFactory, parts int, col *vioCollector) {
	// A fixed probe seed could land on a schedule with no failures for
	// this parts count; scan for the first seed that fails somewhere so
	// the check always exercises the retry path.
	var plan *chaos.FaultPlan
	for seed := uint64(21); seed < 60; seed++ {
		p, err := chaos.NewPlan(chaos.Spec{Seed: seed, FailRate: 0.5, MaxRetries: 2, Backoff: 0.01}, parts)
		if err != nil {
			col.addf("setup", "building retry plan: %v", err)
			return
		}
		for r := 0; r < parts; r++ {
			if p.Failures(r, 0) > 0 {
				plan = p
				break
			}
		}
		if plan != nil {
			break
		}
	}
	if plan == nil {
		col.addf("setup", "no retry-plan seed produced a failure at parts=%d", parts)
		return
	}
	sizes := ringSizes(parts)
	perCall := cluster.All2AllTime(timing.Default(), sizes)
	runBody(faultFactory(f, plan, nil), parts, col, func(dev Transport) error {
		r := dev.Rank()
		dev.RingAll2All(ringSend(r, sizes, 0))
		wantComm := perCall
		var wantIdle timing.Seconds
		backoff := timing.Seconds(plan.Spec.Backoff)
		for i := 0; i < plan.Failures(r, 0); i++ {
			wantIdle += backoff
			wantComm += perCall
			backoff *= 2
		}
		if comm := dev.Clock().Spent(timing.Comm); comm != wantComm {
			col.addf("chaos-retry-charge", "rank %d charged %v to Comm after %d scheduled failures, want %v (the lost transfer re-charged per retry)", r, comm, plan.Failures(r, 0), wantComm)
		}
		if idle := dev.Clock().Spent(timing.Idle); idle != wantIdle {
			col.addf("chaos-retry-charge", "rank %d charged %v to Idle after %d scheduled failures, want exponential backoff %v", r, idle, plan.Failures(r, 0), wantIdle)
		}
		return nil
	})
}

// checkChaosCrashRecovery trains a small fixed-seed scenario with a
// scheduled device crash and requires the crash to be invisible in the
// results: loss curve, accuracies and byte ledger bit-identical to the
// fault-free run, exactly one crash counted, and wall-clock grown.
func checkChaosCrashRecovery(f RuntimeFactory, parts int, col *vioCollector) {
	ds, err := synthetic.Load("tiny", synthetic.Scale(1))
	if err != nil {
		col.addf("setup", "loading conformance dataset: %v", err)
		return
	}
	dep := Deploy(ds, parts, GCN, partition.Block)
	cfg := codecConformConfig()
	cfg.transportFactory = f
	ref, err := TrainDeployed(dep, cfg, nil)
	if err != nil {
		col.addf("chaos-crash-recovery", "fault-free training failed: %v", err)
		return
	}
	crashCfg := cfg
	// A crash in epoch 1 of 4: two gradient all-reduces follow the restart,
	// so a fault that starts after it reaches the loss curve, not only the
	// final accuracy.
	crashCfg.Faults = chaos.Spec{Seed: 5, CrashEpoch: 1, RestartPenalty: 1000}
	crash, err := TrainDeployed(dep, crashCfg, nil)
	if err != nil {
		col.addf("chaos-crash-recovery", "training with a scheduled crash failed: %v", err)
		return
	}
	if desc := runDivergence(ref, crash, false); desc != "" {
		col.addf("chaos-crash-recovery", "crash/restart changed the training results or the byte ledger (%s)", desc)
	}
	if crash.Faults.Crashes != 1 {
		col.addf("chaos-crash-recovery", "run counted %d crashes, want exactly 1", crash.Faults.Crashes)
	}
	if crash.WallClock <= ref.WallClock {
		col.addf("chaos-crash-recovery", "crashed run wall-clock %v not above fault-free %v — restart downtime was not charged", crash.WallClock, ref.WallClock)
	}
}

// Package chaos provides deterministic fault injection for the simulated
// cluster: straggler slowdowns, transient collective failures with bounded
// retry/backoff, and device crash/restart at an epoch boundary.
//
// Everything is derived from an explicit seed, so a fault plan is a pure
// function of its Spec: the same Spec produces the same straggler ranks,
// the same failure schedule and the same crash site on every run and on
// every transport backend. That keeps the repo's central invariant intact
// — fixed seed ⇒ bit-identical loss curves — because faults only ever
// charge simulated *time*; the numerics (payloads, reductions, RNG
// streams) are never perturbed, and a crash is a clock event: the crashed
// epoch runs once and its lost attempt is charged as time.
package chaos

import (
	"fmt"
	"strings"

	"repro/internal/timing"
)

// Spec is the user-facing declarative fault specification. The zero value
// injects nothing. Validate fills defaults for enabled fault families.
type Spec struct {
	// Seed derives straggler selection, the failure schedule and the
	// crash site. Independent of the training seed: the same cluster
	// weather can be replayed across different training runs. 0 means 1.
	Seed uint64 `json:"seed,omitempty"`

	// Stragglers is how many devices the plan slows down (0 = none).
	Stragglers int `json:"stragglers,omitempty"`
	// SlowFactor multiplies a compute-bound straggler's local work
	// (>= 1; 0 defaults to 4 when stragglers are enabled without any
	// factor, else to 1).
	SlowFactor float64 `json:"slow_factor,omitempty"`
	// LinkFactor multiplies a bandwidth-bound straggler's outgoing link
	// cost θ (>= 1; 0 = 1). When both factors are configured, chosen
	// stragglers alternate between the two bottleneck types.
	LinkFactor float64 `json:"link_factor,omitempty"`

	// FailRate is the probability a charged collective operation fails
	// transiently and must be retried (0 = never, must be < 1).
	FailRate float64 `json:"fail_rate,omitempty"`
	// MaxRetries bounds the consecutive failures of one operation; the
	// deterministic planner always draws within the budget, so a retried
	// operation eventually succeeds. 0 defaults to 3 when FailRate > 0.
	MaxRetries int `json:"max_retries,omitempty"`
	// Backoff is the base retry backoff in simulated seconds, doubled per
	// consecutive failure and charged to the device clock as Idle.
	// 0 defaults to 0.05 when FailRate > 0.
	Backoff float64 `json:"backoff_s,omitempty"`

	// CrashEpoch k (>= 1) makes one seed-chosen device crash in the epoch
	// of 0-based index k, before the epoch's results are committed. The
	// epoch runs once; every device is charged its training part a second
	// time, as the attempt the crash destroyed. 0 disables crashes.
	CrashEpoch int `json:"crash_epoch,omitempty"`
	// RestartPenalty is the simulated downtime (seconds) the crashed
	// device pays to restart, charged as Idle; the others wait for it at
	// the restart rendezvous. 0 defaults to 5 when CrashEpoch > 0.
	RestartPenalty float64 `json:"restart_penalty_s,omitempty"`
}

// Enabled reports whether the spec injects any fault at all.
func (s Spec) Enabled() bool {
	return s.Stragglers > 0 || s.FailRate > 0 || s.CrashEpoch > 0
}

// Validate fills defaults for zero-valued fields of enabled fault
// families and sanity-checks the ranges.
func (s *Spec) Validate() error {
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Stragglers < 0 {
		return fmt.Errorf("chaos: stragglers must be >= 0, got %d", s.Stragglers)
	}
	if s.Stragglers > 0 && s.SlowFactor == 0 && s.LinkFactor == 0 {
		s.SlowFactor = 4
	}
	if s.SlowFactor == 0 {
		s.SlowFactor = 1
	}
	if s.LinkFactor == 0 {
		s.LinkFactor = 1
	}
	if s.SlowFactor < 1 {
		return fmt.Errorf("chaos: slow factor must be >= 1, got %v", s.SlowFactor)
	}
	if s.LinkFactor < 1 {
		return fmt.Errorf("chaos: link factor must be >= 1, got %v", s.LinkFactor)
	}
	if s.FailRate < 0 || s.FailRate >= 1 {
		return fmt.Errorf("chaos: fail rate %v outside [0,1)", s.FailRate)
	}
	if s.FailRate > 0 {
		if s.MaxRetries == 0 {
			s.MaxRetries = 3
		}
		if s.Backoff == 0 {
			s.Backoff = 0.05
		}
	}
	if s.MaxRetries < 0 {
		return fmt.Errorf("chaos: max retries must be >= 0, got %d", s.MaxRetries)
	}
	if s.Backoff < 0 {
		return fmt.Errorf("chaos: backoff must be >= 0, got %v", s.Backoff)
	}
	if s.CrashEpoch < 0 {
		return fmt.Errorf("chaos: crash epoch must be >= 0, got %d", s.CrashEpoch)
	}
	if s.CrashEpoch > 0 && s.RestartPenalty == 0 {
		s.RestartPenalty = 5
	}
	if s.RestartPenalty < 0 {
		return fmt.Errorf("chaos: restart penalty must be >= 0, got %v", s.RestartPenalty)
	}
	return nil
}

// FaultPlan is a Spec materialized for a concrete device count: which
// ranks straggle (and how), which rank crashes and when. Plans are
// immutable once built and safe to share across devices and runs.
type FaultPlan struct {
	// Spec is the validated specification the plan was derived from.
	Spec Spec
	// Parts is the device count the plan was materialized for.
	Parts int
	// Slowdown[r] multiplies rank r's local work between collectives
	// (1 = no slowdown).
	Slowdown []float64
	// LinkSlow[r] multiplies rank r's outgoing link cost θ (1 = normal).
	LinkSlow []float64
	// CrashRank is the device that crashes, or -1 when no crash is
	// scheduled.
	CrashRank int
	// CrashEpoch is the 0-based index of the epoch in which CrashRank
	// crashes (meaningful only when CrashRank >= 0; epochs past the run's
	// budget simply never crash).
	CrashEpoch int
}

// NewPlan materializes spec for parts devices. The result is a pure
// function of (spec, parts).
func NewPlan(spec Spec, parts int) (*FaultPlan, error) {
	if parts <= 0 {
		return nil, fmt.Errorf("chaos: plan needs parts >= 1, got %d", parts)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	p := &FaultPlan{
		Spec:      spec,
		Parts:     parts,
		Slowdown:  make([]float64, parts),
		LinkSlow:  make([]float64, parts),
		CrashRank: -1,
	}
	for r := range p.Slowdown {
		p.Slowdown[r] = 1
		p.LinkSlow[r] = 1
	}
	if n := spec.Stragglers; n > 0 {
		if n > parts {
			n = parts
		}
		ranks := pickRanks(spec.Seed, parts, n)
		comp, link := spec.SlowFactor > 1, spec.LinkFactor > 1
		for i, r := range ranks {
			switch {
			case comp && link:
				// Heterogeneous stragglers: alternate the bottleneck so a
				// cluster can hold both a compute-bound and a
				// bandwidth-bound slow device at once; synchronized
				// collectives make every device pay both.
				if i%2 == 0 {
					p.Slowdown[r] = spec.SlowFactor
				} else {
					p.LinkSlow[r] = spec.LinkFactor
				}
			case link:
				p.LinkSlow[r] = spec.LinkFactor
			default:
				p.Slowdown[r] = spec.SlowFactor
			}
		}
	}
	if spec.CrashEpoch > 0 {
		p.CrashRank = int(mix(spec.Seed, 0x63726173680a, 0) % uint64(parts))
		p.CrashEpoch = spec.CrashEpoch
	}
	return p, nil
}

// StragglerCount returns how many ranks the plan slows down in either
// dimension.
func (p *FaultPlan) StragglerCount() int {
	n := 0
	for r := range p.Slowdown {
		if p.Slowdown[r] > 1 || p.LinkSlow[r] > 1 {
			n++
		}
	}
	return n
}

// Failures returns how many consecutive transient failures the op-th
// charged collective on rank suffers before succeeding (0 = clean). It is
// a pure function of (Spec.Seed, rank, op): both transport backends issue
// the same per-device collective sequence, so the schedule is identical
// across backends by construction.
func (p *FaultPlan) Failures(rank, op int) int {
	if p.Spec.FailRate <= 0 || p.Spec.MaxRetries <= 0 {
		return 0
	}
	h := mix(p.Spec.Seed, 0xfa11ed+uint64(rank), uint64(op))
	if float64(h>>11)/(1<<53) >= p.Spec.FailRate {
		return 0
	}
	// Failed: draw the failure count within the retry budget, so the
	// schedule never aborts a run (an unbounded-failure mode would be a
	// different contract; the planner models recoverable blips).
	return 1 + int(mix(p.Spec.Seed, 0x7e781e5+uint64(rank), uint64(op))%uint64(p.Spec.MaxRetries))
}

// ApplyToModel returns a cost model with every bandwidth-bound
// straggler's outgoing links slowed by its LinkSlow factor, materializing
// PairTheta from model (nil = timing.Default()). When the plan has no
// link stragglers, model is returned unchanged — both transport backends
// must derive their model through this one path so their clocks agree.
func (p *FaultPlan) ApplyToModel(model *timing.CostModel) *timing.CostModel {
	hasLink := false
	for _, f := range p.LinkSlow {
		if f > 1 {
			hasLink = true
			break
		}
	}
	if !hasLink {
		return model
	}
	if model == nil {
		model = timing.Default()
	}
	derived := *model
	theta := make([][]float64, p.Parts)
	for s := range theta {
		theta[s] = make([]float64, p.Parts)
		for d := range theta[s] {
			theta[s][d] = model.Theta(s, d) * p.LinkSlow[s]
		}
	}
	derived.PairTheta = theta
	return &derived
}

// String summarizes the materialized plan for logs and examples.
func (p *FaultPlan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos plan (seed %d, %d devices):", p.Spec.Seed, p.Parts)
	none := true
	for r := range p.Slowdown {
		if p.Slowdown[r] > 1 {
			fmt.Fprintf(&b, " rank %d compute ×%g;", r, p.Slowdown[r])
			none = false
		}
		if p.LinkSlow[r] > 1 {
			fmt.Fprintf(&b, " rank %d links ×%g;", r, p.LinkSlow[r])
			none = false
		}
	}
	if p.Spec.FailRate > 0 {
		fmt.Fprintf(&b, " transient failures p=%g (≤%d retries, backoff %gs);",
			p.Spec.FailRate, p.Spec.MaxRetries, p.Spec.Backoff)
		none = false
	}
	if p.CrashRank >= 0 {
		fmt.Fprintf(&b, " rank %d crashes at epoch %d (restart %gs);",
			p.CrashRank, p.CrashEpoch, p.Spec.RestartPenalty)
		none = false
	}
	if none {
		b.WriteString(" no faults")
	}
	return strings.TrimSuffix(b.String(), ";")
}

// pickRanks returns n distinct ranks in [0, parts), chosen by a
// deterministic seed-keyed Fisher–Yates pass.
func pickRanks(seed uint64, parts, n int) []int {
	perm := make([]int, parts)
	for i := range perm {
		perm[i] = i
	}
	for i := parts - 1; i > 0; i-- {
		j := int(mix(seed, 0x5742a661e5, uint64(i)) % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm[:n]
}

// mix folds its arguments through splitmix64 into one well-distributed
// 64-bit hash.
func mix(vals ...uint64) uint64 {
	h := uint64(0x517cc1b727220a95)
	for _, v := range vals {
		h = splitmix(h ^ splitmix(v))
	}
	return h
}

func splitmix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

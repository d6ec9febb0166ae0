package adaqp

import "fmt"

// JobSpec is a declarative training-job description: the one source of
// truth both front ends construct Options from, so cmd/adaqp's CLI flags
// and cmd/adaqpd's job JSON cannot drift. Zero values (nil for the pointer
// fields whose zero is meaningful) mean "engine default".
//
// String fields (Model, Method, Codec, Transport) are registry names, so
// custom codecs and transports registered before submission are usable
// from JSON jobs too; unknown names fail Options with the registered set
// in the error.
type JobSpec struct {
	// Dataset is the registered dataset name (required) and Scale its
	// size factor (0 = 1.0, the registry's reference size).
	Dataset string  `json:"dataset"`
	Scale   float64 `json:"scale,omitempty"`

	Model     string `json:"model,omitempty"`     // gcn | sage
	Method    string `json:"method,omitempty"`    // training system (ParseMethod)
	Codec     string `json:"codec,omitempty"`     // message-codec override
	Transport string `json:"transport,omitempty"` // runtime backend
	// Workers is proc-sharded's worker process count
	// (TransportSpec.Workers; 0 = 2, clamped to parts).
	Workers int `json:"workers,omitempty"`
	// Overlap starts the sancus codec's broadcasts split-phase: the roots'
	// broadcasts are charged as concurrent, and what that hides (compute
	// and other roots' broadcasts) is booked as Overlap; other codecs
	// ignore it (TransportSpec.Overlap).
	Overlap bool `json:"overlap,omitempty"`
	// SocketDir is accepted and ignored (see TransportSpec.SocketDir): no
	// path a job names is ever created.
	SocketDir string `json:"socket_dir,omitempty"`

	Parts  int `json:"parts,omitempty"`
	Epochs int `json:"epochs,omitempty"`
	Layers int `json:"layers,omitempty"`
	Hidden int `json:"hidden,omitempty"`

	LR float64 `json:"lr,omitempty"`
	// Dropout, Lambda and EvalEvery are pointers because 0 is a valid,
	// non-default setting for each (no dropout, pure-time assignment
	// objective, evaluation disabled).
	Dropout   *float64 `json:"dropout,omitempty"`
	Lambda    *float64 `json:"lambda,omitempty"`
	EvalEvery *int     `json:"eval_every,omitempty"`

	GroupSize      int `json:"group_size,omitempty"`
	ReassignPeriod int `json:"reassign_period,omitempty"`
	UniformBits    int `json:"bits,omitempty"`

	Seed uint64 `json:"seed,omitempty"`

	// Chaos, when non-nil, injects the declared deterministic faults into
	// the run (see WithFaultPlan). Fault fields marshal under the "chaos"
	// key, e.g. {"chaos":{"stragglers":1,"slow_factor":4}}.
	Chaos *FaultSpec `json:"chaos,omitempty"`
}

// Load loads the spec's dataset (Scale 0 = 1.0).
func (j JobSpec) Load() (*Dataset, error) {
	if j.Dataset == "" {
		return nil, fmt.Errorf("adaqp: job spec needs a dataset (have %v)", DatasetNames())
	}
	scale := j.Scale
	if scale == 0 {
		scale = 1
	}
	return LoadDataset(j.Dataset, scale)
}

// Options converts the spec into engine options, leaving engine defaults
// in place for zero-valued fields. The returned options still pass through
// full validation (including codec/transport registry lookups) when
// applied by New, Session or Scheduler.Submit.
func (j JobSpec) Options() ([]Option, error) {
	var opts []Option
	if j.Model != "" {
		mk, err := ParseModelKind(j.Model)
		if err != nil {
			return nil, err
		}
		opts = append(opts, WithModel(mk))
	}
	if j.Method != "" {
		m, err := ParseMethod(j.Method)
		if err != nil {
			return nil, err
		}
		opts = append(opts, WithMethod(m))
	}
	if j.Codec != "" {
		if _, err := LookupCodec(j.Codec); err != nil {
			return nil, err
		}
	}
	if j.Transport != "" {
		if _, err := LookupTransport(j.Transport); err != nil {
			return nil, err
		}
	}
	// The transport and codec fields map onto the grouped specs — the
	// same structs programmatic callers hand to WithTransport/WithCodec —
	// so the JSON/flag path and the Go API cannot drift.
	if j.Transport != "" || j.Workers != 0 || j.Overlap {
		opts = append(opts, WithTransport(TransportSpec{
			Name:    j.Transport,
			Workers: j.Workers,
			Overlap: j.Overlap,
		}))
	}
	if j.Parts != 0 {
		opts = append(opts, WithParts(j.Parts))
	}
	if j.Epochs != 0 {
		opts = append(opts, WithEpochs(j.Epochs))
	}
	if j.Layers != 0 {
		opts = append(opts, WithLayers(j.Layers))
	}
	if j.Hidden != 0 {
		opts = append(opts, WithHidden(j.Hidden))
	}
	if j.LR != 0 {
		opts = append(opts, WithLR(j.LR))
	}
	if j.Dropout != nil {
		opts = append(opts, WithDropout(*j.Dropout))
	}
	if j.Lambda != nil {
		opts = append(opts, WithLambda(*j.Lambda))
	}
	if j.EvalEvery != nil {
		opts = append(opts, WithEvalEvery(*j.EvalEvery))
	}
	if j.GroupSize != 0 {
		opts = append(opts, WithGroupSize(j.GroupSize))
	}
	if j.ReassignPeriod != 0 {
		opts = append(opts, WithReassignPeriod(j.ReassignPeriod))
	}
	if j.Codec != "" || j.UniformBits != 0 {
		opts = append(opts, WithCodec(CodecSpec{Name: j.Codec, UniformBits: j.UniformBits}))
	}
	if j.Seed != 0 {
		opts = append(opts, WithSeed(j.Seed))
	}
	if j.Chaos != nil {
		opts = append(opts, WithFaultPlan(*j.Chaos))
	}
	return opts, nil
}

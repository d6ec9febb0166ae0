package adaqp

import (
	"cmp"
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
)

// Engine owns one dataset and its deployment (partitioning + per-device
// local graphs) and runs training sessions over it. The zero value is not
// usable; construct with New.
//
// An Engine is safe for sequential reuse: deriving Sessions with
// different codecs or hyper-parameters reuses the cached deployment,
// which is how the paper holds partitioning fixed across system
// comparisons. Runs must not execute concurrently on one Engine.
type Engine struct {
	ds   *Dataset
	base settings

	mu  sync.Mutex
	dep *core.Deployment
	key depKey
}

// depKey identifies the inputs a deployment depends on; option overrides
// that change it trigger a re-partition on the next run.
type depKey struct {
	parts    int
	kind     ModelKind
	strategy Strategy
}

func (s *settings) depKey() depKey {
	return depKey{parts: s.parts, kind: s.cfg.Model, strategy: s.strategy}
}

// New builds an Engine for ds with the paper's unified defaults (3-layer
// GCN, hidden 256, Adam lr 0.01, 200 epochs, 4 devices, block
// partitioning), then applies opts.
func New(ds *Dataset, opts ...Option) (*Engine, error) {
	if ds == nil {
		return nil, fmt.Errorf("adaqp: nil dataset")
	}
	s := defaultSettings()
	if err := s.apply(opts); err != nil {
		return nil, err
	}
	return &Engine{ds: ds, base: s}, nil
}

// Dataset returns the dataset this engine trains on.
func (e *Engine) Dataset() *Dataset { return e.ds }

// Deployment returns the engine's deployment (building it on first use),
// exposing partition statistics and per-device local graphs.
func (e *Engine) Deployment() *Deployment { return e.deployment(&e.base) }

func (e *Engine) deployment(s *settings) *core.Deployment {
	key := s.depKey()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dep == nil || e.key != key {
		e.dep = core.Deploy(e.ds, s.parts, s.cfg.Model, s.strategy)
		e.key = key
	}
	return e.dep
}

// Session is one training run's frozen configuration, derived from an
// Engine with optional overrides.
type Session struct {
	eng *Engine
	set settings
}

// Session derives a run configuration from the engine's options plus
// overrides, validating the combination.
func (e *Engine) Session(opts ...Option) (*Session, error) {
	s := e.base
	if err := s.apply(opts); err != nil {
		return nil, err
	}
	return &Session{eng: e, set: s}, nil
}

// Deployment returns the deployment this session will train on.
func (s *Session) Deployment() *Deployment { return s.eng.deployment(&s.set) }

// Run executes the session's training job and returns its measurements.
func (s *Session) Run() (*Result, error) {
	return s.RunContext(context.Background())
}

// RunContext is Run under a cancellation context: when ctx is canceled the
// run stops at the next epoch boundary and returns ErrCanceled. A
// non-cancellable context adds no per-epoch overhead and leaves results
// bit-identical to Run.
func (s *Session) RunContext(ctx context.Context) (*Result, error) {
	dep := s.eng.deployment(&s.set)
	cfg := s.set.cfg
	cfg.Codec = s.Codec()
	return core.TrainDeployedCtx(ctx, dep, cfg, s.set.model)
}

// Codec returns the name of the message codec the session trains with.
func (s *Session) Codec() string {
	return cmp.Or(s.set.cfg.Codec, s.set.methodCodec, CodecFP32)
}

// Run is shorthand for Session(opts...).Run().
func (e *Engine) Run(opts ...Option) (*Result, error) {
	sess, err := e.Session(opts...)
	if err != nil {
		return nil, err
	}
	return sess.Run()
}

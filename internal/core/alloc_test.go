package core

import (
	goruntime "runtime"
	"sync"
	"testing"

	"repro/internal/partition"
	"repro/internal/quant"
	"repro/internal/synthetic"
	"repro/internal/tensor"
)

// TestCodecSteadyStateAllocs pins the zero-allocation contract of the
// warmed encode/decode hot paths: with a pool whose freelists already hold
// the needed buffer classes and an env whose scratch has grown (the state
// every epoch after the first runs in), a full encode → decode round trip
// must not allocate.
// The race detector instruments the allocator, so the exact assertions
// only run in normal builds; the bodies still execute under -race.
func TestCodecSteadyStateAllocs(t *testing.T) {
	const rows, dim = 12, 32
	x := tensor.New(rows, dim)
	rng := tensor.NewRNG(3)
	x.FillUniform(rng, -1, 1)
	idx := make([]int32, rows)
	for i := range idx {
		idx[i] = int32(i)
	}
	check := func(name string, avg float64) {
		if avg != 0 && !raceEnabled {
			t.Errorf("%s allocates %.1f times per run, want 0", name, avg)
		}
	}

	t.Run("fp32-rows", func(t *testing.T) {
		a := NewArena(1)
		dst := tensor.New(rows, dim)
		warm := func() {
			buf := appendRows(a.GetBuf(4*rows*dim), x, idx)
			if err := readRows(buf, dst, idx, false); err != nil {
				t.Fatal(err)
			}
			a.PutBuf(buf)
		}
		warm()
		check("fp32 row round trip", testing.AllocsPerRun(20, warm))
	})

	// The quantized exchange's own hot path: ranges scanned once into the
	// env's row-range scratch, mixed-width encode from them, and the
	// backward receive's decode-and-add straight into the gradient rows.
	t.Run("quantized-exchange", func(t *testing.T) {
		env := &ExchangeEnv{Graph: &partition.LocalGraph{NumLocal: rows, Parts: 2, SendTo: [][]int32{nil, idx}}, Pool: NewArena(1)}
		a := env.Pool
		widths := make([]quant.BitWidth, rows)
		for i := range widths {
			widths[i] = quant.Candidates[i%len(quant.Candidates)]
		}
		dst := tensor.New(rows, dim)
		warm := func() {
			ranges := env.ranges(forward, 1, x)
			buf, err := quant.AppendQuantizedMixedRanges(a.GetBuf(quant.MixedSize(widths, dim)), x, idx, widths, ranges, rng)
			if err != nil {
				t.Fatal(err)
			}
			if err := quant.DequantizeMixedAdd(buf, dst, idx, widths); err != nil {
				t.Fatal(err)
			}
			a.PutBuf(buf)
		}
		warm()
		check("quantized exchange round trip", testing.AllocsPerRun(20, warm))
	})
}

// classRuntime records, per all2all call in call order, how many payloads
// of each pool size class the devices post: the buffers one exchange takes
// out of the payload pool. Wrapped around the in-process backend through
// the transportFactory seam.
type classRuntime struct {
	Runtime
	mu    sync.Mutex
	calls [][arenaClasses]int // per call, summed over ranks
}

type classTransport struct {
	Transport
	rt    *classRuntime
	calls int // all2all calls this rank has made
}

func (rt *classRuntime) Run(seed uint64, body func(Transport) error) error {
	return rt.Runtime.Run(seed, func(tr Transport) error {
		return body(&classTransport{Transport: tr, rt: rt})
	})
}

func (t *classTransport) record(payloads [][]byte) {
	t.rt.mu.Lock()
	defer t.rt.mu.Unlock()
	if t.calls == len(t.rt.calls) {
		t.rt.calls = append(t.rt.calls, [arenaClasses]int{})
	}
	for _, p := range payloads {
		if c := arenaClassFor(cap(p)); p != nil && c >= 0 {
			t.rt.calls[t.calls][c]++
		}
	}
	t.calls++
}

func (t *classTransport) RingAll2All(payloads [][]byte) [][]byte {
	t.record(payloads)
	return t.Transport.RingAll2All(payloads)
}

func (t *classTransport) RawAll2All(payloads [][]byte) [][]byte {
	t.record(payloads)
	return t.Transport.RawAll2All(payloads)
}

// TestWarmRunsStopMissingThePool: every Run on a Deployment shares its
// payload pool, so after the first Run has filled it, later Runs — even
// across garbage collections — take every buffer from it. The bound is what
// the pool can ever need: every exchange rendezvouses before any device
// starts the one after next, so the buffers out of the pool at one time are
// at most two consecutive exchanges' payloads, per size class. A pool's
// buffers all return to their class and none is dropped below that many,
// so a class misses at most that often, however many Runs follow.
func TestWarmRunsStopMissingThePool(t *testing.T) {
	const runs = 6
	inprocess, err := LookupTransport(TransportInprocess)
	if err != nil {
		t.Fatal(err)
	}
	dep := testDeploy(synthetic.MustLoad("tiny", 1), 4, GCN)
	var need [arenaClasses]int // per class, the most two consecutive exchanges post
	for r := range runs {
		cfg := tinyConfig([]string{CodecFP32, CodecAdaptive}[r%2])
		var rt *classRuntime
		cfg.transportFactory = func(spec TransportSpec) Runtime {
			rt = &classRuntime{Runtime: inprocess(spec)}
			return rt
		}
		if _, err := TrainDeployed(dep, cfg, nil); err != nil {
			t.Fatal(err)
		}
		for k := range rt.calls {
			for c := range need {
				pair := rt.calls[k][c]
				if k+1 < len(rt.calls) {
					pair += rt.calls[k+1][c]
				}
				need[c] = max(need[c], pair)
			}
		}
		goruntime.GC()
		goruntime.GC()
	}
	bound := 0
	for _, n := range need {
		bound += n
	}
	misses := dep.payloadPool().misses
	t.Logf("%d Runs: %d pool misses, bound %d", runs, misses, bound)
	if bound == 0 {
		t.Fatal("no pooled payload was posted: the check exercised nothing")
	}
	if misses > bound {
		t.Errorf("%d Runs missed the pool %d times, more than the %d buffers two consecutive exchanges hold", runs, misses, bound)
	}
}

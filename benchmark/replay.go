package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/bitassign"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/quant"
	"repro/internal/synthetic"
	"repro/internal/tensor"
	"repro/internal/wire"
	"repro/pkg/adaqp"
)

// Kernel replay: one training epoch's operations, rebuilt from the real
// deployment (every device's Adj, SendTo, RecvFrom, NumLocal, NumHalo)
// and the layer dimensions, and timed by calling each layer's exported
// functions directly. Devices replay concurrently, one goroutine each,
// as they run in training, so a layer's replay time is comparable with
// its share of the epoch's wall time on this machine.

const replayReps = 5

// onDevices runs fn once per device concurrently and returns the wall
// time until the slowest finishes.
func onDevices(n int, fn func(d int)) time.Duration {
	var wg sync.WaitGroup
	t0 := time.Now()
	for d := 0; d < n; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(d)
		}()
	}
	wg.Wait()
	return time.Since(t0)
}

// phase is one replayed kernel phase: wallMS is the median wall time of
// the concurrent replay (what rates are computed from), cpuMS the mean
// CPU time it consumed, user + system over all cores — the additive
// currency the ledger sums, like a CPU profile's samples.
type phase struct {
	wallMS, cpuMS float64
}

func (a phase) plus(b phase) phase { return phase{a.wallMS + b.wallMS, a.cpuMS + b.cpuMS} }

func (a phase) times(f float64) phase { return phase{a.wallMS * f, a.cpuMS * f} }

// timeDevices replays fn on n concurrent devices replayReps times.
func timeDevices(n int, fn func(d int)) phase {
	var walls []float64
	cpu0 := cpuSeconds()
	for i := 0; i < replayReps; i++ {
		walls = append(walls, ms(onDevices(n, fn)))
	}
	return phase{wallMS: median(walls), cpuMS: (cpuSeconds() - cpu0) * 1e3 / replayReps}
}

// replayShape is what the inventory needs to know about a workload.
type replayShape struct {
	locals    []*partition.LocalGraph
	dims      []int // dims[l] → dims[l+1] is layer l; len = layers+1
	task      synthetic.Task
	evalShare float64 // evaluation forward passes per training epoch
	groupSize int
	lambda    float64
	model     *adaqp.CostModel
	features  *tensor.Matrix // global feature matrix (layer-0 messages)
}

func (s *replayShape) layers() int { return len(s.dims) - 1 }

func filled(rows, cols int, rng *tensor.RNG) *tensor.Matrix {
	m := tensor.New(rows, cols)
	m.FillNormal(rng, 0, 1)
	return m
}

// ---- tensor ----

type tensorReplay struct {
	matmul, tmatmul, matmult             phase
	matmulFlop, tmatmulFlop, matmultFlop float64
	axpyGBps                             float64
}

func (s *replayShape) replayTensor(rng *tensor.RNG) tensorReplay {
	type layerMats struct{ x, w, y, dy, dw, dx *tensor.Matrix }
	n := len(s.locals)
	mats := make([][]layerMats, n)
	var r tensorReplay
	for d, lg := range s.locals {
		for l := 0; l < s.layers(); l++ {
			in, out := s.dims[l], s.dims[l+1]
			mats[d] = append(mats[d], layerMats{
				x: filled(lg.NumLocal, in, rng), w: filled(in, out, rng), y: tensor.New(lg.NumLocal, out),
				dy: filled(lg.NumLocal, out, rng), dw: tensor.New(in, out), dx: tensor.New(lg.NumLocal, in),
			})
			flop := 2 * float64(lg.NumLocal) * float64(in) * float64(out)
			r.matmulFlop += flop
			r.tmatmulFlop += flop
			r.matmultFlop += flop
		}
	}
	r.matmul = timeDevices(n, func(d int) {
		for _, m := range mats[d] {
			tensor.MatMulInto(m.y, m.x, m.w)
		}
	})
	r.tmatmul = timeDevices(n, func(d int) {
		for _, m := range mats[d] {
			tensor.TMatMulInto(m.dw, m.x, m.dy)
		}
	})
	r.matmult = timeDevices(n, func(d int) {
		for _, m := range mats[d] {
			tensor.MatMulTInto(m.dx, m.dy, m.w)
		}
	})
	// AXPY over every device's hidden activation block: 2 reads + 1 write.
	var bytes float64
	for d := range mats {
		bytes += 12 * float64(len(mats[d][1].x.Data))
	}
	axpy := timeDevices(n, func(d int) {
		a := mats[d][1]
		a.dx.AXPY(0.5, a.x)
	})
	r.axpyGBps = bytes / (axpy.wallMS * 1e6)
	return r
}

// ---- graph ----

type graphReplay struct {
	spmm, spmmt         phase
	spmmFlop, spmmtFlop float64
}

func (s *replayShape) replayGraph(rng *tensor.RNG) graphReplay {
	type layerMats struct{ xFull, agg, dAgg, dxFull *tensor.Matrix }
	n := len(s.locals)
	mats := make([][]layerMats, n)
	var r graphReplay
	for d, lg := range s.locals {
		for l := 0; l < s.layers(); l++ {
			in := s.dims[l]
			mats[d] = append(mats[d], layerMats{
				xFull: filled(lg.NumLocal+lg.NumHalo, in, rng), agg: tensor.New(lg.NumLocal, in),
				dAgg: filled(lg.NumLocal, in, rng), dxFull: tensor.New(lg.NumLocal+lg.NumHalo, in),
			})
			flop := 2 * float64(lg.Adj.NumEdges()) * float64(in)
			r.spmmFlop += flop
			if l > 0 { // layer 0 needs no input gradient
				r.spmmtFlop += flop
			}
		}
	}
	r.spmm = timeDevices(n, func(d int) {
		for _, m := range mats[d] {
			s.locals[d].Adj.SpMM(m.agg, m.xFull)
		}
	})
	r.spmmt = timeDevices(n, func(d int) {
		for _, m := range mats[d][1:] {
			s.locals[d].Adj.SpMMT(m.dxFull, m.dAgg)
		}
	})
	return r
}

// ---- nn ----

type nnReplay struct {
	elementwiseFwd, elementwiseBwd, adam, loss phase
}

func (s *replayShape) replayNN(rng *tensor.RNG) nnReplay {
	type hidden struct {
		ln   *nn.LayerNorm
		relu *nn.ReLU
		drop *nn.Dropout
		z, d *tensor.Matrix
	}
	type device struct {
		hid    []hidden
		params []*nn.Param
		opt    *nn.Adam
		rng    *tensor.RNG
		logits *tensor.Matrix
		labels []int
		y      *tensor.Matrix
		mask   []bool
	}
	n := len(s.locals)
	devs := make([]device, n)
	classes := s.dims[s.layers()]
	for d, lg := range s.locals {
		dv := &devs[d]
		dv.rng = rng.Split()
		dv.opt = nn.NewAdam(0.01)
		for l := 0; l < s.layers(); l++ {
			in, out := s.dims[l], s.dims[l+1]
			dv.params = append(dv.params, nn.NewLinear(fmt.Sprint("l", l), in, out, dv.rng).Params()...)
			if l == s.layers()-1 {
				break
			}
			h := hidden{ln: nn.NewLayerNorm(fmt.Sprint("l", l), out), relu: &nn.ReLU{}, drop: &nn.Dropout{P: 0.5},
				z: filled(lg.NumLocal, out, dv.rng), d: filled(lg.NumLocal, out, dv.rng)}
			dv.params = append(dv.params, h.ln.Params()...)
			dv.hid = append(dv.hid, h)
		}
		for _, p := range dv.params {
			p.Grad.FillNormal(dv.rng, 0, 0.01)
		}
		dv.logits = filled(lg.NumLocal, classes, dv.rng)
		dv.mask = make([]bool, lg.NumLocal)
		dv.labels = make([]int, lg.NumLocal)
		dv.y = tensor.New(lg.NumLocal, classes)
		for i := range dv.mask {
			dv.mask[i] = dv.rng.Float32() < 0.5
			dv.labels[i] = dv.rng.Intn(classes)
			dv.y.Set(i, dv.labels[i], 1)
		}
	}
	var r nnReplay
	r.elementwiseFwd = timeDevices(n, func(d int) {
		for _, h := range devs[d].hid {
			h.drop.Forward(h.relu.Forward(h.ln.Forward(h.z)), devs[d].rng, true)
		}
	})
	r.elementwiseBwd = timeDevices(n, func(d int) {
		for _, h := range devs[d].hid {
			h.ln.Backward(h.relu.Backward(h.drop.Backward(h.d)))
		}
	})
	r.adam = timeDevices(n, func(d int) { devs[d].opt.Step(devs[d].params) })
	r.loss = timeDevices(n, func(d int) {
		dv := &devs[d]
		if s.task == synthetic.SingleLabel {
			nn.SoftmaxCrossEntropyScaled(dv.logits, dv.labels, dv.mask, 100)
		} else {
			nn.SigmoidBCEWeighted(dv.logits, dv.y, dv.mask, 100, 10)
		}
	})
	return r
}

// ---- quant ----

type quantReplay struct {
	quantGBps, dequantGBps map[quant.BitWidth]float64
	mixedQuantGBps         float64
	mixedDequantGBps       float64
	replay                 phase
	allocsPerOp            float64
}

// haloIdx is the xFull row of each halo slot received from p.
func haloIdx(lg *partition.LocalGraph, p int) []int32 {
	idx := make([]int32, len(lg.RecvFrom[p]))
	for i, s := range lg.RecvFrom[p] {
		idx[i] = s + int32(lg.NumLocal)
	}
	return idx
}

func (s *replayShape) replayQuant(rng *tensor.RNG) (quantReplay, error) {
	n := len(s.locals)
	r := quantReplay{quantGBps: map[quant.BitWidth]float64{}, dequantGBps: map[quant.BitWidth]float64{}}
	// One exchange is an encode phase on every sender and a decode phase
	// on every receiver; streams[src][dst] carries the bytes between.
	type exchange struct {
		src     []*tensor.Matrix // per device: the matrix rows are read from
		dst     []*tensor.Matrix // per device: the matrix rows are decoded into
		sendIdx [][][]int32      // [dev][peer] rows to encode
		recvIdx [][][]int32      // [dev][peer] rows to decode into
		widths  [][][]quant.BitWidth
		streams [][][]byte
		rngs    []*tensor.RNG
		bytes   float64 // fp32 bytes entering the quantizer
	}
	build := func(dim int, backward bool) *exchange {
		e := &exchange{}
		for d, lg := range s.locals {
			rows := lg.NumLocal + lg.NumHalo
			e.src = append(e.src, filled(rows, dim, rng))
			e.dst = append(e.dst, tensor.New(rows, dim))
			e.rngs = append(e.rngs, rng.Split())
			send, recv := make([][]int32, n), make([][]int32, n)
			ws := make([][]quant.BitWidth, n)
			for p := 0; p < n; p++ {
				if p == d {
					continue
				}
				// Forward ships SendTo rows into the peer's halo slots;
				// backward ships halo-slot gradients back to SendTo rows.
				if backward {
					send[p], recv[p] = haloIdx(lg, p), lg.SendTo[p]
				} else {
					send[p], recv[p] = lg.SendTo[p], haloIdx(lg, p)
				}
				ws[p] = quant.RandomWidths(len(send[p]), e.rngs[d])
				e.bytes += 4 * float64(len(send[p])*dim)
			}
			e.sendIdx = append(e.sendIdx, send)
			e.recvIdx = append(e.recvIdx, recv)
			e.widths = append(e.widths, ws)
			e.streams = append(e.streams, make([][]byte, n))
		}
		return e
	}
	var firstErr error
	var errMu sync.Mutex
	keep := func(err error) {
		if err != nil {
			errMu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			errMu.Unlock()
		}
	}
	encodeMixed := func(e *exchange) phase {
		return timeDevices(n, func(d int) {
			for p, idx := range e.sendIdx[d] {
				if len(idx) == 0 {
					continue
				}
				buf, err := quant.AppendQuantizedMixed(e.streams[d][p][:0], e.src[d], idx, e.widths[d][p], e.rngs[d])
				keep(err)
				e.streams[d][p] = buf
			}
		})
	}
	decodeMixed := func(e *exchange) phase {
		return timeDevices(n, func(d int) {
			for p, idx := range e.recvIdx[d] {
				if len(idx) == 0 {
					continue
				}
				keep(quant.DequantizeMixed(e.streams[p][d], e.dst[d], idx, e.widths[p][d]))
			}
		})
	}

	// Uniform widths over the layer-0 forward exchange: the rate of each
	// packing kernel on this workload's row length.
	first := build(s.dims[0], false)
	for _, b := range []quant.BitWidth{quant.B2, quant.B4, quant.B8} {
		enc := timeDevices(n, func(d int) {
			for p, idx := range first.sendIdx[d] {
				if len(idx) > 0 {
					first.streams[d][p] = quant.AppendQuantizedRows(first.streams[d][p][:0], first.src[d], idx, b, first.rngs[d])
				}
			}
		})
		dec := timeDevices(n, func(d int) {
			for p, idx := range first.recvIdx[d] {
				if len(idx) > 0 {
					keep(quant.DequantizeRows(first.streams[p][d], first.dst[d], idx, len(idx), b))
				}
			}
		})
		r.quantGBps[b] = first.bytes / (enc.wallMS * 1e6)
		r.dequantGBps[b] = first.bytes / (dec.wallMS * 1e6)
	}

	// Mixed widths over the whole epoch: forward on every layer, backward
	// on every layer but the first.
	var enc, dec phase
	var bytes float64
	for l := 0; l < s.layers(); l++ {
		for _, backward := range []bool{false, true} {
			if backward && l == 0 {
				continue
			}
			e := first
			if l > 0 || backward {
				e = build(s.dims[l], backward)
			}
			enc = enc.plus(encodeMixed(e))
			dec = dec.plus(decodeMixed(e))
			bytes += e.bytes
		}
	}
	r.mixedQuantGBps = bytes / (enc.wallMS * 1e6)
	r.mixedDequantGBps = bytes / (dec.wallMS * 1e6)
	r.replay = enc.plus(dec)

	// Steady-state allocations of one encode into a reused buffer.
	for p, idx := range first.sendIdx[0] {
		if len(idx) == 0 {
			continue
		}
		buf, err := quant.AppendQuantizedMixed(nil, first.src[0], idx, first.widths[0][p], first.rngs[0])
		keep(err)
		const ops = 20
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < ops; i++ {
			buf, err = quant.AppendQuantizedMixed(buf[:0], first.src[0], idx, first.widths[0][p], first.rngs[0])
			keep(err)
		}
		runtime.ReadMemStats(&m1)
		r.allocsPerOp = float64(m1.Mallocs-m0.Mallocs) / ops
		break
	}
	return r, firstErr
}

// ---- bitassign ----

type assignReplay struct {
	solveMS   float64
	groups    int
	objective float64
}

// replayAssign builds the layer-0 forward assignment problem exactly as
// the master does — β from the real feature rows' ranges and the
// receiver-side Σα² — and times NewProblem + Solve.
func (s *replayShape) replayAssign() assignReplay {
	n := len(s.locals)
	dim := s.dims[0]
	alphaSq := make([][]float64, n) // per device, per halo slot
	for d, lg := range s.locals {
		alphaSq[d] = make([]float64, lg.NumHalo)
		for u := 0; u < lg.NumLocal; u++ {
			ws := lg.Adj.EdgeWeights(u)
			for k, v := range lg.Adj.Neighbors(u) {
				if int(v) >= lg.NumLocal {
					w := 1.0
					if ws != nil {
						w = float64(ws[k])
					}
					alphaSq[d][int(v)-lg.NumLocal] += w * w
				}
			}
		}
	}
	var msgs []bitassign.Message
	for src, lg := range s.locals {
		for dst := 0; dst < n; dst++ {
			if dst == src {
				continue
			}
			for j, row := range lg.SendTo[dst] {
				mn, mx := tensor.MinMax(s.features.Row(int(lg.GlobalID[row])))
				rng2 := float64(mx-mn) * float64(mx-mn)
				slot := s.locals[dst].RecvFrom[src][j]
				msgs = append(msgs, bitassign.Message{
					Pair: src*n + dst, Slot: j, Dim: dim,
					Beta: float64(dim) * rng2 / 6 * alphaSq[dst][slot],
				})
			}
		}
	}
	theta, gamma := make([]float64, n*n), make([]float64, n*n)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			theta[a*n+b] = s.model.Theta(a, b)
			gamma[a*n+b] = s.model.Gamma()
		}
	}
	var r assignReplay
	var xs []float64
	for i := 0; i < replayReps; i++ {
		t0 := time.Now()
		prob := bitassign.NewProblem(msgs, s.groupSize, theta, gamma, s.lambda)
		widths := prob.Solve()
		xs = append(xs, ms(time.Since(t0)))
		r.groups = len(prob.Groups)
		_, _, r.objective = prob.Objective(widths)
	}
	r.solveMS = median(xs)
	return r
}

// ---- wire ----

type wireReplay struct {
	appendGBps, parseGBps            float64
	startMS, shutdownMS, roundtripUS float64
	streamMBps                       float64
}

// replayWire times frame encode/decode at the workload's mean layer-0
// payload size, then a standalone two-worker pool: start, small-frame
// round trips, a bulk stream, shutdown.
func (s *replayShape) replayWire() (wireReplay, error) {
	var r wireReplay
	var total, pairs int
	for _, lg := range s.locals {
		for _, idx := range lg.SendTo {
			if len(idx) > 0 {
				total += 4 * s.dims[0] * len(idx)
				pairs++
			}
		}
	}
	payload := make([]byte, max(total/max(pairs, 1), 64))
	for i := range payload {
		payload[i] = byte(i)
	}
	frame := wire.Frame{Op: wire.OpData, Seq: 7, Src: 0, Dst: 1, Payload: payload}
	const frames = 64
	var buf []byte
	var enc, dec []float64
	for i := 0; i < replayReps; i++ {
		t0 := time.Now()
		buf = buf[:0]
		for k := 0; k < frames; k++ {
			buf = wire.AppendFrame(buf, frame)
		}
		enc = append(enc, ms(time.Since(t0)))
		// Decode as the data path does: ReadFrame off a stream, which
		// copies the payload out (ParseFrame only aliases it).
		t0 = time.Now()
		stream := bytes.NewReader(buf)
		for k := 0; k < frames; k++ {
			if _, err := wire.ReadFrame(stream); err != nil {
				return r, fmt.Errorf("read replayed frame: %w", err)
			}
		}
		dec = append(dec, ms(time.Since(t0)))
	}
	r.appendGBps = float64(len(buf)) / (median(enc) * 1e6)
	r.parseGBps = float64(len(buf)) / (median(dec) * 1e6)

	if err := os.MkdirAll(socketDir, 0o755); err != nil {
		return r, err
	}
	dir, err := os.MkdirTemp(socketDir, "run-")
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(dir)
	delivered := make(chan struct{}, 1024) // ≥ the largest burst below, so onData never blocks
	var poolErr error
	var errOnce sync.Once
	t0 := time.Now()
	pool, err := wire.StartPool(dir, 2, func(wire.Frame) { delivered <- struct{}{} },
		func(err error) { errOnce.Do(func() { poolErr = err }) })
	if err != nil {
		return r, fmt.Errorf("start probe pool: %w", err)
	}
	r.startMS = ms(time.Since(t0))
	wait := func(n int) error {
		for i := 0; i < n; i++ {
			select {
			case <-delivered:
			case <-time.After(10 * time.Second):
				return fmt.Errorf("probe pool delivered %d of %d frames", i, n)
			}
		}
		return nil
	}
	fail := func(err error) (wireReplay, error) {
		pool.Kill()
		return r, err
	}
	small := wire.Frame{Op: wire.OpData, Src: 0, Dst: 1, Payload: payload[:64]}
	var rtts []float64
	for i := 0; i < 200; i++ {
		t := time.Now()
		small.Seq = uint32(i)
		if err := pool.Send(small); err != nil {
			return fail(err)
		}
		if err := wait(1); err != nil {
			return fail(err)
		}
		rtts = append(rtts, float64(time.Since(t).Nanoseconds())/1e3)
	}
	r.roundtripUS = median(rtts)
	bulk := wire.Frame{Op: wire.OpData, Src: 0, Dst: 1, Payload: make([]byte, 256<<10)}
	const bulkFrames = 128
	t0 = time.Now()
	sendErr := make(chan error, 1)
	go func() {
		for i := 0; i < bulkFrames; i++ {
			bulk.Seq = uint32(1000 + i)
			if err := pool.Send(bulk); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- nil
	}()
	if err := wait(bulkFrames); err != nil {
		return fail(err)
	}
	if err := <-sendErr; err != nil {
		return fail(err)
	}
	r.streamMBps = float64(bulkFrames*len(bulk.Payload)) / time.Since(t0).Seconds() / 1e6
	t0 = time.Now()
	if _, err := pool.Shutdown(); err != nil {
		return r, fmt.Errorf("shut probe pool down: %w", err)
	}
	r.shutdownMS = ms(time.Since(t0))
	return r, poolErr
}

// ---- machine ceiling ----

// machineCeiling measures what this machine can do at best: a large
// copy (GB/s, bytes read + written) and independent scalar multiply-adds
// on every core (GFLOP/s).
func machineCeiling() (copyGBps, fmaGFlops float64) {
	src, dst := make([]byte, 32<<20), make([]byte, 32<<20)
	var cs []float64
	for i := 0; i < replayReps; i++ {
		t0 := time.Now()
		copy(dst, src)
		cs = append(cs, ms(time.Since(t0)))
	}
	copyGBps = 2 * float64(len(src)) / (median(cs) * 1e6)

	const iters = 1 << 23
	cores := runtime.NumCPU()
	sink := make([]float32, cores)
	fma := timeDevices(cores, func(d int) {
		a, b, c, e := float32(1.0), float32(1.1), float32(1.2), float32(1.3)
		m, k := float32(0.999999), float32(1e-6)
		for i := 0; i < iters; i++ {
			a = a*m + k
			b = b*m + k
			c = c*m + k
			e = e*m + k
		}
		sink[d] = a + b + c + e
	})
	fmaGFlops = 8 * float64(iters) * float64(cores) / (fma.wallMS * 1e6)
	return copyGBps, fmaGFlops
}

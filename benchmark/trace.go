package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/tensor"
	"repro/internal/wire"
	"repro/pkg/adaqp"
)

// The traced pass measures every layer from outside the program: it
// registers "traced:<name>" transports and codecs that delegate to the
// built-in ones through the public RegisterTransport / RegisterCodec
// seams and record a span around every call that crosses the seam.

const tracedPrefix = "traced:"

// runTrack is the device id of spans that belong to the whole run (the
// Run call and the epochs) rather than to one simulated device.
const runTrack = -1

// span is one timed call. Times are offsets from the recorder's start.
type span struct {
	Name       string
	Dev        int
	Start, End time.Duration
	// Parent indexes the enclosing span on the same device, -1 for none.
	Parent int
	// Bytes and Count are the payload bytes and non-empty payloads this
	// device handed to the collective; Ledger marks collectives whose
	// bytes the runtime's BytesMoved ledger counts.
	Bytes  int64
	Count  int
	Ledger bool
	// Async marks split-phase collectives, timed Start→Wait: they overlap
	// their siblings instead of nesting.
	Async bool
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps one session's spans in memory. Each device appends to
// its own slice from its own goroutine, so no lock is needed; the
// run-level track is written by the goroutine calling Run and by rank 0's
// epoch callback, which never overlap in time with each other's writes
// (see traceSession).
type recorder struct {
	t0    time.Time
	run   []span
	devs  [][]span
	stack [][]int
}

// active is the recorder the traced factories write to. Registration is
// process-global, so the current session's recorder has to be too.
var active atomic.Pointer[recorder]

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() time.Duration { return time.Since(r.t0) }

func (r *recorder) sizeFor(n int) {
	if len(r.devs) < n {
		r.devs = make([][]span, n)
		r.stack = make([][]int, n)
	}
}

// begin opens a nested span on device d and returns its index.
func (r *recorder) begin(d int, name string) int {
	parent := -1
	if st := r.stack[d]; len(st) > 0 {
		parent = st[len(st)-1]
	}
	r.devs[d] = append(r.devs[d], span{Name: name, Dev: d, Start: r.now(), Parent: parent})
	id := len(r.devs[d]) - 1
	r.stack[d] = append(r.stack[d], id)
	return id
}

func (r *recorder) end(d, id int) *span {
	s := &r.devs[d][id]
	s.End = r.now()
	r.stack[d] = r.stack[d][:len(r.stack[d])-1]
	return s
}

// beginAsync opens a split-phase span: parented like a nested one but not
// pushed, because other calls start and finish before its Wait.
func (r *recorder) beginAsync(d int, name string) int {
	id := r.begin(d, name)
	r.stack[d] = r.stack[d][:len(r.stack[d])-1]
	r.devs[d][id].Async = true
	return id
}

// ---- traced transport ----

type tracedRuntime struct {
	adaqp.Runtime
	rec *recorder
}

func (t tracedRuntime) Run(seed uint64, body func(adaqp.Transport) error) error {
	t.rec.sizeFor(t.Size())
	return t.Runtime.Run(seed, func(dev adaqp.Transport) error {
		return body(&tracedDev{Transport: dev, rec: t.rec, d: dev.Rank()})
	})
}

// tracedDev wraps the ten collective methods of one device's Transport;
// Rank, Size, Clock, Model and Rand pass through the embedded interface.
type tracedDev struct {
	adaqp.Transport
	rec *recorder
	d   int
}

// sent is the payload bytes and count this device puts on the wire in a
// per-destination payload list (its own slot never travels).
func (t *tracedDev) sent(payloads [][]byte) (int64, int) {
	var n int64
	c := 0
	for dst, p := range payloads {
		if dst != t.d && len(p) > 0 {
			n += int64(len(p))
			c++
		}
	}
	return n, c
}

func (t *tracedDev) finish(id int, bytes int64, count int, ledger bool) {
	s := t.rec.end(t.d, id)
	s.Bytes, s.Count, s.Ledger = bytes, count, ledger
}

func (t *tracedDev) Barrier() {
	id := t.rec.begin(t.d, "Barrier")
	t.Transport.Barrier()
	t.finish(id, 0, 0, false)
}

func (t *tracedDev) RingAll2All(payloads [][]byte) [][]byte {
	n, c := t.sent(payloads) // before the call: the receiver owns the buffers after it
	id := t.rec.begin(t.d, "RingAll2All")
	out := t.Transport.RingAll2All(payloads)
	t.finish(id, n, c, true)
	return out
}

func (t *tracedDev) AllReduceSum(ms []*tensor.Matrix) {
	var n int64
	for _, m := range ms {
		n += int64(4 * len(m.Data))
	}
	id := t.rec.begin(t.d, "AllReduceSum")
	t.Transport.AllReduceSum(ms)
	t.finish(id, n, len(ms), false)
}

func (t *tracedDev) GatherBytes(root int, payload []byte) [][]byte {
	var n int64
	c := 0
	if t.d != root {
		n, c = int64(len(payload)), 1
	}
	id := t.rec.begin(t.d, "GatherBytes")
	out := t.Transport.GatherBytes(root, payload)
	t.finish(id, n, c, true)
	return out
}

func (t *tracedDev) ScatterBytes(root int, payloads [][]byte) []byte {
	var n int64
	c := 0
	if t.d == root {
		n, c = t.sent(payloads)
	}
	id := t.rec.begin(t.d, "ScatterBytes")
	out := t.Transport.ScatterBytes(root, payloads)
	t.finish(id, n, c, false)
	return out
}

// broadcastSent: the root sends its payload to every other device.
func (t *tracedDev) broadcastSent(root int, payload []byte) (int64, int) {
	if t.d != root {
		return 0, 0
	}
	peers := t.Size() - 1
	return int64(len(payload)) * int64(peers), peers
}

func (t *tracedDev) BroadcastBytes(root int, payload []byte) []byte {
	n, c := t.broadcastSent(root, payload)
	id := t.rec.begin(t.d, "BroadcastBytes")
	out := t.Transport.BroadcastBytes(root, payload)
	t.finish(id, n, c, true)
	return out
}

func (t *tracedDev) RawAll2All(payloads [][]byte) [][]byte {
	n, c := t.sent(payloads)
	id := t.rec.begin(t.d, "RawAll2All")
	out := t.Transport.RawAll2All(payloads)
	t.finish(id, n, c, false)
	return out
}

func (t *tracedDev) RawAllGather(payload []byte) [][]byte {
	n := int64(len(payload)) * int64(t.Size()-1)
	id := t.rec.begin(t.d, "RawAllGather")
	out := t.Transport.RawAllGather(payload)
	t.finish(id, n, t.Size()-1, false)
	return out
}

// tracedPending closes a split-phase span when its Wait returns.
type tracedPending struct {
	inner adaqp.PendingCollective
	s     *tracedDev
	id    int
}

func (p *tracedPending) Wait() []byte {
	out := p.inner.Wait()
	p.s.rec.devs[p.s.d][p.id].End = p.s.rec.now()
	return out
}

func (t *tracedDev) StartBroadcast(root int, payload []byte) adaqp.PendingCollective {
	n, c := t.broadcastSent(root, payload)
	id := t.rec.beginAsync(t.d, "StartBroadcast")
	s := &t.rec.devs[t.d][id]
	s.Bytes, s.Count, s.Ledger = n, c, true
	return &tracedPending{inner: t.Transport.StartBroadcast(root, payload), s: t, id: id}
}

func (t *tracedDev) StartScatter(root int, payloads [][]byte) adaqp.PendingCollective {
	var n int64
	c := 0
	if t.d == root {
		n, c = t.sent(payloads)
	}
	id := t.rec.beginAsync(t.d, "StartScatter")
	s := &t.rec.devs[t.d][id]
	s.Bytes, s.Count = n, c
	return &tracedPending{inner: t.Transport.StartScatter(root, payloads), s: t, id: id}
}

// ---- traced codec ----

// tracedCodec wraps one device's codec instance. The first Forward of
// epoch 0 on rank 0 also marks where epoch 0 starts, which no public
// callback reports.
type tracedCodec struct {
	adaqp.MessageCodec
	rec *recorder
	d   int
}

func (c *tracedCodec) Forward(env *adaqp.ExchangeEnv, epoch, layer int, h, xFull *tensor.Matrix) error {
	if c.d == 0 && epoch == 0 && layer == 0 {
		c.rec.run = append(c.rec.run, span{Name: "epoch", Dev: runTrack, Start: c.rec.now(), Parent: 0})
	}
	id := c.rec.begin(c.d, "codec.Forward")
	err := c.MessageCodec.Forward(env, epoch, layer, h, xFull)
	c.rec.end(c.d, id)
	return err
}

func (c *tracedCodec) Backward(env *adaqp.ExchangeEnv, epoch, layer int, dxFull, dxLocal *tensor.Matrix) error {
	id := c.rec.begin(c.d, "codec.Backward")
	err := c.MessageCodec.Backward(env, epoch, layer, dxFull, dxLocal)
	c.rec.end(c.d, id)
	return err
}

func (c *tracedCodec) EpochEnd(env *adaqp.ExchangeEnv, epoch int) error {
	id := c.rec.begin(c.d, "codec.EpochEnd")
	err := c.MessageCodec.EpochEnd(env, epoch)
	c.rec.end(c.d, id)
	return err
}

// registerTraced registers a traced twin of every transport and codec the
// workloads use. Registration is permanent, so it happens once.
func registerTraced() error {
	for _, name := range []string{adaqp.TransportInprocess, adaqp.TransportShardedAsync, adaqp.TransportProcSharded} {
		inner, err := adaqp.LookupTransport(name)
		if err != nil {
			return err
		}
		adaqp.RegisterTransport(tracedPrefix+name, func(spec adaqp.RuntimeSpec) adaqp.Runtime {
			return tracedRuntime{Runtime: inner(spec), rec: active.Load()}
		})
	}
	for _, name := range []string{adaqp.CodecFP32, adaqp.CodecAdaptive, adaqp.CodecSancus} {
		inner, err := adaqp.LookupCodec(name)
		if err != nil {
			return err
		}
		adaqp.RegisterCodec(tracedPrefix+name, func(env *adaqp.CodecEnv) (adaqp.MessageCodec, error) {
			c, err := inner(env)
			if err != nil {
				return nil, err
			}
			return &tracedCodec{MessageCodec: c, rec: active.Load(), d: env.Rank}, nil
		})
	}
	return nil
}

// tracedOptions swaps a session's transport and codec for their traced
// twins, keeping every other knob.
func tracedOptions(m adaqp.Method, tr adaqp.TransportSpec) ([]adaqp.Option, error) {
	codec, err := core.CodecForMethod(m)
	if err != nil {
		return nil, err
	}
	if tr.Name == "" {
		tr.Name = adaqp.TransportInprocess
	}
	tr.Name = tracedPrefix + tr.Name
	return []adaqp.Option{
		adaqp.WithTransport(tr),
		adaqp.WithCodec(adaqp.CodecSpec{Name: tracedPrefix + codec}),
	}, nil
}

// traceSession runs fn — one training run whose options came from
// tracedOptions and whose epoch callback is the returned hook — under a
// fresh recorder, and returns the recorder with its run and epoch spans
// closed. The hook runs on rank 0's goroutine, the Run span is written
// before Run starts and after it returns, and the epoch-0 marker is
// written by rank 0: the run track has one writer at a time.
func traceSession(fn func(epochHook func(adaqp.EpochStat)) error) (*recorder, error) {
	rec := newRecorder()
	active.Store(rec)
	defer active.Store(nil)
	rec.run = append(rec.run, span{Name: "Run", Dev: runTrack, Start: rec.now(), Parent: -1})
	err := fn(func(adaqp.EpochStat) {
		now := rec.now()
		if n := len(rec.run); n > 1 {
			rec.run[n-1].End = now
		}
		rec.run = append(rec.run, span{Name: "epoch", Dev: runTrack, Start: now, Parent: 0})
	})
	// The hook opened one epoch after the last real one; drop it.
	if n := len(rec.run); n > 1 && rec.run[n-1].End == 0 {
		rec.run = rec.run[:n-1]
	}
	rec.run[0].End = rec.now()
	return rec, err
}

// ---- analysis ----

// covered is how much of [lo,hi] the given intervals cover (their union,
// clipped), so overlapping split-phase children are not counted twice.
func covered(lo, hi time.Duration, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	cur := lo
	for _, k := range kids {
		s, e := k.Start, k.End
		if s < cur {
			s = cur
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// selfTimes returns each span's self time on one device: its duration
// minus the part its direct children cover.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - covered(s.Start, s.End, kids[i])
	}
	return out
}

// ledger is one traced session reduced to per-layer values, keyed by
// metric name. Times are means over devices, per epoch, in ms.
type ledger struct {
	vals        map[string]float64
	epochMS     []float64 // every epoch span
	ledgerBytes int64     // payload bytes of the collectives BytesMoved counts
	// collectiveMS is the time inside Transport collectives, waiting
	// included, per device per epoch.
	collectiveMS float64
	err          error // spans that do not nest, or a negative self time
}

// collectiveMetric maps each Transport method to the metric that sums it.
var collectiveMetric = map[string]string{
	"RingAll2All":    "transport.ring_all2all_ms_per_epoch",
	"AllReduceSum":   "transport.allreduce_ms_per_epoch",
	"RawAll2All":     "transport.raw_ms_per_epoch",
	"RawAllGather":   "transport.raw_ms_per_epoch",
	"Barrier":        "transport.barrier_ms_per_epoch",
	"GatherBytes":    oneToMany,
	"ScatterBytes":   oneToMany,
	"BroadcastBytes": oneToMany,
	"StartBroadcast": oneToMany,
	"StartScatter":   oneToMany,
}

// oneToMany collects the rooted collectives; it is reported as a share of
// all collective time because a workload without them (plain fp32
// training) would otherwise report a constant zero time.
const oneToMany = "transport.one_to_many_share"

var codecMetric = map[string]string{
	"codec.Forward":  "core.codec_forward_self_ms_per_epoch",
	"codec.Backward": "core.codec_backward_self_ms_per_epoch",
	"codec.EpochEnd": "core.codec_epochend_self_ms_per_epoch",
}

// analyze reduces a recorder to a ledger, checking on the way that spans
// nest and self times are non-negative.
func (r *recorder) analyze() ledger {
	l := ledger{vals: map[string]float64{}}
	runSpan := r.run[0]
	var epochSum time.Duration
	for _, s := range r.run[1:] {
		l.epochMS = append(l.epochMS, ms(s.dur()))
		epochSum += s.dur()
		if s.Start < runSpan.Start || s.End > runSpan.End || s.End < s.Start {
			l.err = fmt.Errorf("epoch span [%v,%v] escapes the Run span", s.Start, s.End)
		}
	}
	epochs := len(r.run) - 1
	if epochs == 0 || len(r.devs) == 0 {
		l.err = fmt.Errorf("traced session recorded %d epochs on %d devices", epochs, len(r.devs))
		return l
	}
	l.vals["core.run_overhead_ms"] = ms(runSpan.dur() - epochSum)
	first, last := r.run[1].Start, r.run[len(r.run)-1].End
	perDevEpoch := float64(len(r.devs) * epochs)
	window := ms(last-first) * float64(len(r.devs))
	var topLevelMS, collMS, payloadBytes float64
	var payloads, assigns int
	for _, spans := range r.devs {
		self := selfTimes(spans)
		for i, s := range spans {
			if s.End < s.Start || self[i] < 0 {
				l.err = fmt.Errorf("span %s on device %d has negative time", s.Name, s.Dev)
			}
			if s.Parent >= 0 {
				if p := spans[s.Parent]; s.Start < p.Start || (!s.Async && s.End > p.End) {
					l.err = fmt.Errorf("span %s on device %d escapes its parent %s", s.Name, s.Dev, p.Name)
				}
			}
			inEpochs := s.Start >= first && s.End <= last
			if name, isCodec := codecMetric[s.Name]; isCodec {
				if inEpochs {
					l.vals[name] += ms(self[i]) / perDevEpoch
					l.vals["core.codec_calls_per_epoch"] += 1 / perDevEpoch
				}
				if s.Name == "codec.EpochEnd" && i+1 < len(spans) && spans[i+1].Parent == i {
					assigns++ // an EpochEnd that ran collectives re-assigned widths
				}
			} else {
				payloadBytes += float64(s.Bytes)
				payloads += s.Count
				if s.Ledger {
					l.ledgerBytes += s.Bytes
				}
				if inEpochs {
					l.vals[collectiveMetric[s.Name]] += ms(s.dur()) / perDevEpoch
					l.vals["transport.collective_calls_per_epoch"] += 1 / perDevEpoch
					collMS += ms(s.dur())
				}
			}
			if s.Parent < 0 && inEpochs && !s.Async {
				topLevelMS += ms(s.dur())
			}
		}
	}
	l.vals["core.assign_rounds"] = float64(assigns) / float64(len(r.devs))
	l.vals["core.compute_self_ms_per_epoch"] = (window - topLevelMS) / perDevEpoch
	l.vals["transport.collective_wait_share"] = collMS / window
	l.collectiveMS = collMS / perDevEpoch
	l.vals[oneToMany] /= collMS / perDevEpoch
	l.vals["transport.payload_mb_per_epoch"] = float64(l.ledgerBytes) / float64(epochs) / 1e6
	l.vals["transport.payloads_per_epoch"] = float64(payloads) / float64(epochs)
	// What framing would add if every payload crossed the wire backend.
	overhead := float64(payloads * wire.FrameSize(0))
	l.vals["wire.frame_overhead_share"] = overhead / (payloadBytes + overhead)
	return l
}

// meanLedger is the weighted mean of ledgers, value by value. Epoch
// samples and ledger bytes are concatenated and summed.
func meanLedger(ls []ledger, weights []float64) ledger {
	out := ledger{vals: map[string]float64{}}
	var total float64
	for _, w := range weights {
		total += w
	}
	for i, l := range ls {
		for k, v := range l.vals {
			out.vals[k] += v * weights[i] / total
		}
		out.collectiveMS += l.collectiveMS * weights[i] / total
		out.epochMS = append(out.epochMS, l.epochMS...)
		out.ledgerBytes += l.ledgerBytes
		if out.err == nil {
			out.err = l.err
		}
	}
	return out
}

// ---- Perfetto / Chrome trace output ----

type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceEvents renders one session's spans as complete ("X") events: pid
// is the session, tid 0 the run track, tid d+1 device d, and tid 101+d
// device d's split-phase collectives (they overlap the nested spans, so
// they get a track of their own).
func (r *recorder) traceEvents(pid int, label string) []traceEvent {
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	evs := []traceEvent{{Name: "process_name", Ph: "M", PID: pid, Args: map[string]any{"name": label}}}
	for _, s := range r.run {
		evs = append(evs, traceEvent{Name: s.Name, Ph: "X", TS: us(s.Start), Dur: us(s.dur()), PID: pid, TID: 0})
	}
	for d, spans := range r.devs {
		evs = append(evs, traceEvent{Name: "thread_name", Ph: "M", PID: pid, TID: d + 1,
			Args: map[string]any{"name": fmt.Sprintf("device %d", d)}})
		for _, s := range spans {
			tid := d + 1
			if s.Async {
				tid = 101 + d
			}
			e := traceEvent{Name: s.Name, Ph: "X", TS: us(s.Start), Dur: us(s.dur()), PID: pid, TID: tid}
			if s.Bytes > 0 {
				e.Args = map[string]any{"bytes": s.Bytes, "payloads": s.Count}
			}
			evs = append(evs, e)
		}
	}
	return evs
}

func writeJSONFile(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

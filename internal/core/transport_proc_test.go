package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/synthetic"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// ringPayload builds the deterministic payload src ships to dst in round
// r — distinct content and length per edge so a misrouted or truncated
// frame cannot pass the receive-side checks.
func ringPayload(src, dst, r int) []byte {
	p := []byte(fmt.Sprintf("r%d:%d->%d:", r, src, dst))
	return append(p, bytes.Repeat([]byte{byte(16*src + dst)}, (src+1)*(dst+2)+r)...)
}

// TestProcDefaultWorkers pins what Workers means at its zero value: two
// worker processes, however many devices there are. Every rank ships a
// ring round, so both workers echo frames and report.
func TestProcDefaultWorkers(t *testing.T) {
	const n = 4
	rt := newProcRuntime(TransportSpec{Parts: n}).(*procRuntime)
	err := rt.Run(1, func(tr Transport) error {
		payloads := make([][]byte, n)
		for dst := range payloads {
			if dst != tr.Rank() {
				payloads[dst] = ringPayload(tr.Rank(), dst, 0)
			}
		}
		tr.RingAll2All(payloads)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ws := rt.WireStats().Workers
	if len(ws) != 2 {
		t.Fatalf("Workers 0 on %d parts collected %d worker reports, want 2", n, len(ws))
	}
	for i, w := range ws {
		if w.Frames == 0 {
			t.Errorf("worker %d echoed no frames", i)
		}
	}
}

// TestProcWireByteAccounting runs a ring-only workload on the
// proc-sharded backend and reconciles its byte ledgers against the real
// framed traffic: every payload byte must have crossed a socket inside a
// frame, and the parent's counters, the workers' counters, and the
// backend's BytesMoved ledger must all agree exactly.
func TestProcWireByteAccounting(t *testing.T) {
	const n, workers, rounds = 4, 2, 3
	rt := newProcRuntime(TransportSpec{Parts: n, Workers: workers}).(*procRuntime)

	err := rt.Run(1, func(tr Transport) error {
		for r := 0; r < rounds; r++ {
			payloads := make([][]byte, n)
			for dst := 0; dst < n; dst++ {
				if dst != tr.Rank() {
					payloads[dst] = ringPayload(tr.Rank(), dst, r)
				}
			}
			got := tr.RingAll2All(payloads)
			for src := 0; src < n; src++ {
				if src == tr.Rank() {
					continue
				}
				if want := ringPayload(src, tr.Rank(), r); !bytes.Equal(got[src], want) {
					return fmt.Errorf("rank %d round %d: payload from %d corrupted in flight", tr.Rank(), r, src)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Expected traffic, recomputed independently of the backend: a frame
	// goes to the worker of its source rank's shard and straight back.
	var frames, payloadBytes, sentBytes uint64
	perWorker := make([]wire.Stats, workers)
	for r := 0; r < rounds; r++ {
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if src == dst {
					continue
				}
				l := len(ringPayload(src, dst, r))
				frames++
				payloadBytes += uint64(l)
				sentBytes += uint64(wire.FrameSize(l))
				perWorker[src%workers].Frames++
				perWorker[src%workers].Bytes += uint64(wire.FrameSize(l))
			}
		}
	}

	stats := rt.WireStats()
	if stats.SentFrames != frames || stats.DeliveredFrames != frames {
		t.Errorf("frames: sent %d delivered %d, want %d each", stats.SentFrames, stats.DeliveredFrames, frames)
	}
	if stats.SentBytes != sentBytes {
		t.Errorf("SentBytes = %d, want %d (payload %d + %d frames × %d overhead)",
			stats.SentBytes, sentBytes, payloadBytes, frames, wire.FrameOverhead)
	}
	if stats.DeliveredBytes != stats.SentBytes {
		t.Errorf("DeliveredBytes = %d, want SentBytes = %d", stats.DeliveredBytes, stats.SentBytes)
	}
	checkWireConservation(t, stats, workers)
	for i, ws := range stats.Workers {
		if ws != perWorker[i] {
			t.Errorf("worker %d echoed %+v, want its source shard's frames %+v", i, ws, perWorker[i])
		}
	}

	// The backend's payload ledger must equal the frames' payload bytes:
	// framed traffic minus framing overhead, nothing moved in memory only.
	var moved uint64
	for _, row := range rt.BytesMoved() {
		for _, v := range row {
			moved += uint64(v)
		}
	}
	if moved != payloadBytes {
		t.Errorf("BytesMoved total = %d, want %d payload bytes", moved, payloadBytes)
	}
	if stats.SentBytes != moved+frames*wire.FrameOverhead {
		t.Errorf("framed bytes %d != payload ledger %d + framing %d", stats.SentBytes, moved, frames*wire.FrameOverhead)
	}
}

// checkWireConservation asserts the cross-process conservation laws that
// hold for any gracefully-completed run: every sent frame came back, and
// the workers echoed exactly the frames and bytes the parent sent.
func checkWireConservation(t *testing.T, stats wire.PoolStats, workers int) {
	t.Helper()
	if len(stats.Workers) != workers {
		t.Fatalf("got %d worker stats reports, want %d — workers not interviewed at shutdown", len(stats.Workers), workers)
	}
	var echoed wire.Stats
	for _, ws := range stats.Workers {
		echoed.Frames += ws.Frames
		echoed.Bytes += ws.Bytes
	}
	if stats.DeliveredFrames != stats.SentFrames || stats.DeliveredBytes != stats.SentBytes {
		t.Errorf("delivered %d frames / %d bytes, sent %d / %d", stats.DeliveredFrames, stats.DeliveredBytes, stats.SentFrames, stats.SentBytes)
	}
	if echoed.Frames != stats.SentFrames || echoed.Bytes != stats.SentBytes {
		t.Errorf("workers echoed %d frames / %d bytes, parent sent %d / %d", echoed.Frames, echoed.Bytes, stats.SentFrames, stats.SentBytes)
	}
}

// TestProcWireStatsInvariants drives every collective in the Transport
// contract through the worker fleet and checks the conservation laws on
// the aggregate — no op may move a payload outside the framed wire path
// or leave a frame undelivered.
func TestProcWireStatsInvariants(t *testing.T) {
	const n, workers = 5, 3
	rt := newProcRuntime(TransportSpec{Parts: n, Workers: workers}).(*procRuntime)

	err := rt.Run(2, func(tr Transport) error {
		rank := tr.Rank()
		tr.Barrier()
		payloads := make([][]byte, n)
		for dst := 0; dst < n; dst++ {
			if dst != rank {
				payloads[dst] = ringPayload(rank, dst, 0)
			}
		}
		tr.RingAll2All(payloads)

		m := tensor.New(2, 3)
		m.FillUniform(tr.Rand(), -1, 1)
		tr.AllReduceSum([]*tensor.Matrix{m})

		tr.GatherBytes(1, []byte(fmt.Sprintf("gather from %d", rank)))
		var scatter [][]byte
		if rank == 2 {
			scatter = make([][]byte, n)
			for i := range scatter {
				scatter[i] = ringPayload(2, i, 7)
			}
		}
		tr.ScatterBytes(2, scatter)
		tr.BroadcastBytes(0, []byte("broadcast payload"))

		pending := tr.StartBroadcast(n-1, []byte("split-phase payload"))
		tr.Clock().Advance(0, 0) // any compute would overlap here
		pending.Wait()

		tr.RawAll2All(payloads)
		tr.RawAllGather([]byte{byte(rank)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	stats := rt.WireStats()
	if stats.SentFrames == 0 {
		t.Fatal("no frames crossed the wire — collectives fell back to in-memory delivery")
	}
	if stats.DeliveredFrames != stats.SentFrames {
		t.Errorf("delivered %d of %d sent frames", stats.DeliveredFrames, stats.SentFrames)
	}
	if stats.DeliveredBytes != stats.SentBytes {
		t.Errorf("DeliveredBytes = %d, want SentBytes = %d", stats.DeliveredBytes, stats.SentBytes)
	}
	checkWireConservation(t, stats, workers)
}

// TestProcTrainingSerializesPayloads trains AdaQP on the proc-sharded
// backend with the runtime captured through the factory seam, then checks
// that the run's collective traffic genuinely crossed the worker fleet as
// framed bytes and that the loss curve is bit-identical to the in-process
// reference.
func TestProcTrainingSerializesPayloads(t *testing.T) {
	ds := synthetic.MustLoad("tiny", 1)
	cfg := tinyConfig(AdaQP)
	cfg.Epochs = 6
	cfg.EvalEvery = 3

	ref, err := trainBlock(ds, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var captured *procRuntime
	procCfg := cfg
	procCfg.transportFactory = func(spec TransportSpec) Runtime {
		spec.Workers = 2
		captured = newProcRuntime(spec).(*procRuntime)
		return captured
	}
	got, err := trainBlock(ds, 3, procCfg)
	if err != nil {
		t.Fatal(err)
	}

	if len(got.Epochs) != len(ref.Epochs) {
		t.Fatalf("epoch count %d vs %d", len(got.Epochs), len(ref.Epochs))
	}
	for i := range ref.Epochs {
		if got.Epochs[i].Loss != ref.Epochs[i].Loss {
			t.Errorf("epoch %d loss %.9f != in-process reference %.9f (must be bit-identical)",
				i, got.Epochs[i].Loss, ref.Epochs[i].Loss)
		}
	}
	if got.FinalTest != ref.FinalTest {
		t.Errorf("final test accuracy %.6f != reference %.6f", got.FinalTest, ref.FinalTest)
	}

	stats := captured.WireStats()
	if stats.SentFrames == 0 || stats.SentBytes == 0 {
		t.Fatal("training moved no framed bytes — codec payloads were not serialized over the wire")
	}
	if stats.DeliveredBytes != stats.SentBytes {
		t.Errorf("DeliveredBytes = %d, want SentBytes = %d", stats.DeliveredBytes, stats.SentBytes)
	}
	checkWireConservation(t, stats, 2)

	// Every ledgered payload byte is a non-self delivery, so it must have
	// crossed the wire inside a frame: the framed traffic minus framing
	// overhead bounds the BytesMoved ledger from above (the surplus is
	// un-ledgered traffic — allreduce blobs, scatter payloads, raw-op
	// metrics sideband).
	var moved uint64
	for _, row := range captured.BytesMoved() {
		for _, v := range row {
			moved += uint64(v)
		}
	}
	if moved == 0 {
		t.Fatal("BytesMoved ledger empty after training")
	}
	wirePayload := stats.SentBytes - stats.SentFrames*wire.FrameOverhead
	if wirePayload < moved {
		t.Errorf("only %d payload bytes crossed the wire but the ledger claims %d moved — some payloads skipped serialization",
			wirePayload, moved)
	}
	t.Logf("training moved %d payload bytes in %d frames (%d framed bytes)",
		moved, stats.SentFrames, stats.SentBytes)
}

// TestProcAbortReapsWorkers kills a run from inside a device body and
// checks the abort path: the error surfaces, the worker fleet is fully
// reaped, and the same runtime can immediately start a fresh,
// fully-functional fleet.
func TestProcAbortReapsWorkers(t *testing.T) {
	const n, workers = 3, 2
	rt := newProcRuntime(TransportSpec{Parts: n, Workers: workers}).(*procRuntime)

	boom := errors.New("device body failed")
	err := rt.Run(3, func(tr Transport) error {
		tr.Barrier()
		if tr.Rank() == 0 {
			return boom
		}
		// Peers head into another collective; the abort must release them
		// rather than deadlock.
		tr.Barrier()
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want the device body's error", err)
	}
	if rt.s.pool != nil {
		t.Fatal("aborted run left the worker pool attached")
	}
	// A body abort (the cancel path) still shuts the fleet down
	// gracefully: every worker is interviewed for its stats report before
	// being reaped. Only a broken wire skips the interview.
	if got := rt.WireStats(); len(got.Workers) != workers {
		t.Fatalf("aborted run collected %d worker stats reports, want %d — workers were not gracefully reaped", len(got.Workers), workers)
	}

	// The next Run on the same runtime must bring up a fresh fleet.
	err = rt.Run(4, func(tr Transport) error {
		got := tr.BroadcastBytes(0, []byte("recovered"))
		if string(got) != "recovered" {
			return fmt.Errorf("rank %d: bad broadcast payload %q", tr.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("run after abort: %v", err)
	}
	stats := rt.WireStats()
	if stats.SentFrames == 0 {
		t.Fatal("recovery run moved no frames")
	}
	checkWireConservation(t, stats, workers)
}

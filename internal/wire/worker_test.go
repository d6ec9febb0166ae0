package wire

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"
)

// pipeFleet is a worker fleet without processes or sockets: workerStates in
// this process, every connection a net.Pipe. The test plays the parent; its
// end of worker i's parent connection is parents[i]. net.Pipe is unbuffered
// — a Write returns once the other side has read every byte — so what a
// worker holds and what it has let go is observable exactly.
type pipeFleet struct {
	workers []*workerState
	parents []net.Conn
}

func newPipeFleet(t *testing.T, workers int) *pipeFleet {
	t.Helper()
	fl := &pipeFleet{}
	for i := 0; i < workers; i++ {
		fl.workers = append(fl.workers, newWorkerState(i, workers))
	}
	// Peer connections first, as runWorker dials them before the parent is
	// answered: i's outbound to j is j's inbound from i.
	for i, w := range fl.workers {
		for j, peer := range fl.workers {
			if i == j {
				continue
			}
			out, in := net.Pipe()
			t.Cleanup(func() { out.Close(); in.Close() })
			w.peers[j] = &conn{c: out}
			go peer.handleConn(in)
			if _, err := w.peers[j].writeFrames(Frame{Op: OpHello, Src: uint16(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, w := range fl.workers {
		fl.parents = append(fl.parents, dialPipeParent(t, w))
	}
	return fl
}

// dialPipeParent connects to w claiming to be the parent and returns the
// caller's end, once w has a parent.
func dialPipeParent(t *testing.T, w *workerState) net.Conn {
	t.Helper()
	ours, theirs := net.Pipe()
	t.Cleanup(func() { ours.Close(); theirs.Close() })
	go w.handleConn(theirs)
	if _, err := ours.Write(AppendFrame(nil, Frame{Op: OpHello, Src: ParentID})); err != nil {
		t.Fatal(err)
	}
	<-w.parentSet
	return ours
}

// readFrameWithin reads one frame from c or fails the test after five seconds:
// a frame the worker is holding back shows as a timeout, not a hang.
func readFrameWithin(t *testing.T, c net.Conn) Frame {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	defer c.SetReadDeadline(time.Time{})
	f, err := ReadFrame(c)
	if err != nil {
		t.Fatalf("no frame from the worker: %v", err)
	}
	return f
}

// TestWorkerForwardSteadyStateAllocs pins the forwarding path's contract:
// once buffers are warm a forwarded frame allocates nothing — neither on
// the worker that routes it nor on the one that delivers it — so a worker's
// garbage collector never runs. Each run forwards one same-shard frame (one
// hop) and one cross-shard frame (two hops) of the benchmark's mean size.
// Exact counts hold in normal builds only; under -race the body still runs,
// for the detector's benefit.
func TestWorkerForwardSteadyStateAllocs(t *testing.T) {
	fl := newPipeFleet(t, 2)
	payload := bytes.Repeat([]byte{0x5A}, 9<<10)
	sameShard := AppendFrame(nil, Frame{Op: OpData, Seq: 1, Src: 0, Dst: 2, Payload: payload})
	crossShard := AppendFrame(nil, Frame{Op: OpData, Seq: 2, Src: 0, Dst: 1, Payload: payload})
	back := make([]byte, len(sameShard))
	forward := func(wire []byte, from net.Conn) {
		if _, err := fl.parents[0].Write(wire); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(from, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, wire) {
			t.Fatal("frame changed in flight")
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		forward(sameShard, fl.parents[0])
		forward(crossShard, fl.parents[1])
	})
	if !raceEnabled && allocs != 0 {
		t.Errorf("forwarding two frames allocated %v times, want 0", allocs)
	}
}

// TestWorkerHoldsNothingAcrossBlockingRead: one and a half frames arrive,
// then silence. The complete frame must come out although the worker's next
// read blocks — the flush rule is "no further complete frame buffered", not
// "input drained".
func TestWorkerHoldsNothingAcrossBlockingRead(t *testing.T) {
	fl := newPipeFleet(t, 2)
	for _, dst := range []uint16{2, 1} { // delivered by worker 0 itself, then through worker 1
		first := Frame{Op: OpData, Seq: 5, Src: 0, Dst: dst, Payload: []byte("whole")}
		second := AppendFrame(nil, Frame{Op: OpData, Seq: 6, Src: 0, Dst: dst, Payload: []byte("torn in two")})
		half := len(second) / 2
		if _, err := fl.parents[0].Write(append(AppendFrame(nil, first), second[:half]...)); err != nil {
			t.Fatal(err)
		}
		from := fl.parents[int(dst)%2]
		checkFrame(t, 0, readFrameWithin(t, from), first)
		if _, err := fl.parents[0].Write(second[half:]); err != nil {
			t.Fatal(err)
		}
		if got := readFrameWithin(t, from); got.Seq != 6 || string(got.Payload) != "torn in two" {
			t.Fatalf("second frame arrived as %+v", got)
		}
	}
}

// TestWorkerShutdownFlushesBeforeStats: data frames and OpShutdown arriving
// in one read leave no time for the flush rule to fire between them, so the
// shutdown itself must put the pending frames on the wire before the stats
// report — which already counts them.
func TestWorkerShutdownFlushesBeforeStats(t *testing.T) {
	fl := newPipeFleet(t, 1)
	var in []byte
	var want uint64
	for seq := uint32(0); seq < 3; seq++ {
		f := Frame{Op: OpData, Seq: seq, Payload: bytes.Repeat([]byte{byte(seq)}, 10*int(seq))}
		in = AppendFrame(in, f)
		want += uint64(FrameSize(len(f.Payload)))
	}
	in = AppendFrame(in, Frame{Op: OpShutdown, Src: ParentID})
	if _, err := fl.parents[0].Write(in); err != nil {
		t.Fatal(err)
	}
	for seq := uint32(0); seq < 3; seq++ {
		if f := readFrameWithin(t, fl.parents[0]); f.Op != OpData || f.Seq != seq {
			t.Fatalf("frame %d out of the worker is %+v, want data frame %d", seq, f, seq)
		}
	}
	f := readFrameWithin(t, fl.parents[0])
	if f.Op != OpStats {
		t.Fatalf("after the data frames: %+v, want the stats report", f)
	}
	stats, err := parseStats(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if stats != (Stats{BytesRead: want, BytesWritten: want, FramesRouted: 3}) {
		t.Errorf("stats %+v, want %d bytes read and written in 3 frames", stats, want)
	}
	if err := <-fl.workers[0].result; err != nil {
		t.Errorf("worker ended with %v after a clean shutdown", err)
	}
}

// TestWorkerSecondParentHelloIsDropped: a second connection claiming to be
// the parent is a protocol error. It is closed, and the worker goes on
// serving the real parent.
func TestWorkerSecondParentHelloIsDropped(t *testing.T) {
	fl := newPipeFleet(t, 1)
	impostor := dialPipeParent(t, fl.workers[0])
	impostor.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := impostor.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("second parent connection: read ended with %v, want io.EOF (closed by the worker)", err)
	}
	f := Frame{Op: OpData, Seq: 1, Payload: []byte("still routing")}
	if _, err := fl.parents[0].Write(AppendFrame(nil, f)); err != nil {
		t.Fatal(err)
	}
	checkFrame(t, 0, readFrameWithin(t, fl.parents[0]), f)
}

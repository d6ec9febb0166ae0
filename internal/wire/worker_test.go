package wire

import (
	"bytes"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// The tests below run a worker's parentLoop in this process, without a
// process or a socket pair: its connection is a net.Pipe and the test plays
// the parent. net.Pipe is unbuffered — a Write returns once the other side
// has read every byte — so what a worker holds and what it has let go is
// observable exactly.

// startWorker serves worker index's loop on one end of a pipe, as a worker
// process serves its inherited socket, takes the ready acknowledgment, and
// returns the parent's end and the loop's outcome.
func startWorker(t *testing.T, index int) (net.Conn, <-chan error) {
	t.Helper()
	ours, theirs := net.Pipe()
	t.Cleanup(func() { ours.Close(); theirs.Close() })
	result := make(chan error, 1)
	go func() { result <- parentLoop(theirs, index) }()
	if f := readFrameWithin(t, ours); f.Op != OpReady || f.Src != uint16(index) {
		t.Fatalf("worker %d opened with %+v, want its ready acknowledgment", index, f)
	}
	return ours, result
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

// echo writes wire — whole encoded frames — to the worker and requires the
// same bytes back on the same connection. It sets no deadline: arming one
// allocates, and this is the allocation test's body.
func echo(t *testing.T, parent net.Conn, wire, back []byte) {
	t.Helper()
	if _, err := parent.Write(wire); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(parent, back[:len(wire)]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back[:len(wire)], wire) {
		t.Fatal("frames changed in flight")
	}
}

// TestWorkerForwardSteadyStateAllocs pins the echo's contract: once buffers
// are warm an echoed frame allocates nothing, so a worker's garbage
// collector never runs. Each run sends, at the benchmark's mean size, one
// frame addressed to a rank of the worker's own shard and one addressed to
// another worker's: in a star both come straight back from the worker they
// entered. Exact counts hold in normal builds only; under -race the body
// still runs, for the detector's benefit.
func TestWorkerForwardSteadyStateAllocs(t *testing.T) {
	parent, _ := startWorker(t, 0)
	payload := bytes.Repeat([]byte{0x5A}, 9<<10)
	sameShard := AppendFrame(nil, Frame{Op: OpData, Seq: 1, Src: 0, Dst: 2, Payload: payload})
	crossShard := AppendFrame(nil, Frame{Op: OpData, Seq: 2, Src: 0, Dst: 1, Payload: payload})
	back := make([]byte, len(sameShard))
	allocs := testing.AllocsPerRun(200, func() {
		echo(t, parent, sameShard, back)
		echo(t, parent, crossShard, back)
	})
	if !raceEnabled && allocs != 0 {
		t.Errorf("echoing two frames allocated %v times, want 0", allocs)
	}
}

// TestWorkerHoldsNothingAcrossBlockingRead: one and a half frames arrive,
// then silence. The complete frame must come out although the worker's next
// read blocks — the echo rule is "no further complete frame buffered", not
// "input drained".
func TestWorkerHoldsNothingAcrossBlockingRead(t *testing.T) {
	parent, _ := startWorker(t, 0)
	for _, dst := range []uint16{2, 1} { // a rank of the worker's own shard, then another worker's
		first := Frame{Op: OpData, Seq: 5, Src: 0, Dst: dst, Payload: []byte("whole")}
		second := AppendFrame(nil, Frame{Op: OpData, Seq: 6, Src: 0, Dst: dst, Payload: []byte("torn in two")})
		half := len(second) / 2
		if _, err := parent.Write(append(AppendFrame(nil, first), second[:half]...)); err != nil {
			t.Fatal(err)
		}
		checkFrame(t, 0, readFrameWithin(t, parent), first)
		if _, err := parent.Write(second[half:]); err != nil {
			t.Fatal(err)
		}
		if got := readFrameWithin(t, parent); got.Seq != 6 || string(got.Payload) != "torn in two" {
			t.Fatalf("second frame arrived as %+v", got)
		}
	}
}

// TestWorkerEchoesARunInOneWrite: frames that arrive in one read leave in
// one write, in order, straight out of the reader's buffer. net.Pipe hands
// a reader at most one write per Read, so a run that came back through a
// single Read left the worker as a single write.
func TestWorkerEchoesARunInOneWrite(t *testing.T) {
	parent, _ := startWorker(t, 1)
	var run []byte
	for seq, size := range []int{0, 1, 1000, 100} {
		run = AppendFrame(run, Frame{Op: OpData, Seq: uint32(seq), Src: 1, Dst: uint16(seq), Payload: bytes.Repeat([]byte{byte(seq + 1)}, size)})
	}
	for i := 0; i < 3; i++ {
		if _, err := parent.Write(run); err != nil {
			t.Fatal(err)
		}
		parent.SetReadDeadline(time.Now().Add(5 * time.Second))
		back := make([]byte, len(run)+1)
		n, err := parent.Read(back)
		if err != nil || !bytes.Equal(back[:n], run) {
			t.Fatalf("round %d: one read brought %d of the run's %d bytes back (err %v), want all of them, unchanged", i, n, len(run), err)
		}
	}
}

// TestWorkerEndsCleanAtEOF: a worker serves until the parent lets go.
// Data frames arriving in one read are echoed, and the EOF after them ends
// the worker without an error: nothing is held at a frame boundary.
func TestWorkerEndsCleanAtEOF(t *testing.T) {
	parent, result := startWorker(t, 0)
	var in []byte
	for seq := uint32(0); seq < 3; seq++ {
		in = AppendFrame(in, Frame{Op: OpData, Seq: seq, Payload: bytes.Repeat([]byte{byte(seq)}, 10*int(seq))})
	}
	if _, err := parent.Write(in); err != nil {
		t.Fatal(err)
	}
	for seq := uint32(0); seq < 3; seq++ {
		if f := readFrameWithin(t, parent); f.Op != OpData || f.Seq != seq {
			t.Fatalf("frame %d out of the worker is %+v, want data frame %d", seq, f, seq)
		}
	}
	parent.Close()
	select {
	case err := <-result:
		if err != nil {
			t.Errorf("worker ended with %v at EOF", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker kept going after EOF")
	}
}

// TestWorkerRejectsUnexpectedOp: the parent sends data frames and nothing
// else. Any other op on its connection ends the worker with an error —
// never a silent drop, and never an echo: a ready acknowledgment is
// unexpected, and ops 4 and 5 (a retired shutdown request and stats
// report) do not decode.
func TestWorkerRejectsUnexpectedOp(t *testing.T) {
	for _, tc := range []struct {
		op   byte
		want string
	}{
		{OpReady, "unexpected op"},
		{4, "unknown frame op"},
		{5, "unknown frame op"},
	} {
		parent, result := startWorker(t, 0)
		f := AppendFrame(nil, Frame{Op: OpData, Src: ParentID})
		f[5] = tc.op
		if _, err := parent.Write(f); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-result:
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("op %d: worker ended with %v, want %q", tc.op, err, tc.want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("op %d: worker kept going", tc.op)
		}
	}
}

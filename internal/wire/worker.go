package wire

import (
	"fmt"
	"io"
	"net"
	"os"
	"slices"
	"strconv"
	"sync"
)

// The proc-sharded backend re-executes its own binary to get worker
// processes; this environment variable is the re-exec mode marker and
// carries the worker's index. An env var rather than an argv flag so any
// host binary — CLIs, daemons, `go test` binaries with their own flag
// sets — can enter worker mode without fighting its flag parser.
const envWorker = "ADAQP_WIRE_WORKER"

// parentFD is the descriptor a worker inherits its end of the parent's
// socket pair as: the first of exec.Cmd.ExtraFiles.
const parentFD = 3

// MaybeWorker turns the current process into a wire worker when the
// re-exec environment is present, and never returns in that case. Every
// binary that can host the proc-sharded backend — cmd/adaqp, cmd/adaqpd,
// examples, and the test binaries of packages whose tests run the backend
// (via TestMain) — must call it before doing anything else: StartPool
// re-executes os.Executable() and expects a worker, not another copy of
// the host program.
func MaybeWorker() {
	v := os.Getenv(envWorker)
	if v == "" {
		return
	}
	index, err := strconv.Atoi(v)
	if err != nil || index < 0 {
		fmt.Fprintf(os.Stderr, "wire worker: bad re-exec environment %s=%q\n", envWorker, v)
		os.Exit(2)
	}
	if err := runWorker(index); err != nil {
		fmt.Fprintf(os.Stderr, "wire worker %d: %v\n", index, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// runWorker serves the parent on the connection this process inherited.
// Nothing else holds the parent's end, so a parent that dies or closes it
// ends the worker at its next read: a worker never outlives its parent.
func runWorker(index int) error {
	f := os.NewFile(parentFD, "wire-parent")
	c, err := net.FileConn(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("inherited parent socket (fd %d): %w", parentFD, err)
	}
	defer c.Close()
	return parentLoop(c, index)
}

// conn is the parent's end of one worker's socket, with a write lock so
// posts from concurrent device goroutines interleave at frame granularity,
// never mid-frame.
type conn struct {
	c    net.Conn
	mu   sync.Mutex
	hdrs []byte      // encoded headers
	vecs [][]byte    // header and payload slices
	bufs net.Buffers // vecs as WriteTo consumes it (a field so it is not reallocated per write)
}

// writeFrames writes frames as one vectored write — each header from a
// reused buffer, each payload in place. It returns their framed size.
func (wc *conn) writeFrames(frames ...Frame) (int, error) {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	// Grown up front: vecs holds slices of hdrs, which must not move.
	wc.hdrs = slices.Grow(wc.hdrs[:0], len(frames)*FrameOverhead)
	wc.vecs = wc.vecs[:0]
	size := 0
	for _, f := range frames {
		start := len(wc.hdrs)
		wc.hdrs = appendHeader(wc.hdrs, f)
		wc.vecs = append(wc.vecs, wc.hdrs[start:])
		if len(f.Payload) > 0 {
			wc.vecs = append(wc.vecs, f.Payload)
		}
		size += FrameSize(len(f.Payload))
	}
	wc.bufs = wc.vecs
	_, err := wc.bufs.WriteTo(wc.c)
	clear(wc.vecs) // drop the payload references
	return size, err
}

// parentLoop is one worker process: the far end of one spoke of the star.
// Its only connection is the parent's, and every data frame the parent
// sends it goes straight back on that connection, byte for byte and in
// order. Workers never talk to each other.
//
// The echo is the reader's buffer itself: the complete frames one read
// brought in sit back to back in it and leave in one write the moment the
// input holds no further complete frame — never on a timer, never held
// across a blocking read, never copied.
//
// It acknowledges readiness, then echoes the parent's data frames until
// EOF, which the parent's half-close (Shutdown) or its death brings. At
// EOF nothing is held: the echo rule wrote every complete frame before the
// read that found it. Any op but data from the parent is a protocol error.
func parentLoop(c net.Conn, index int) error {
	if _, err := c.Write(AppendFrame(nil, Frame{Op: OpReady, Src: uint16(index)})); err != nil {
		return fmt.Errorf("ready ack: %w", err)
	}
	fr := newFrameReader(c)
	held := 0 // framed bytes of data frames read and not yet echoed
	for {
		f, err := fr.next()
		if err == io.EOF {
			return nil // the parent let go, between frames: nothing is held
		}
		if err != nil {
			return fmt.Errorf("parent read: %w", err)
		}
		if f.Op != OpData {
			return fmt.Errorf("unexpected op %d from the parent", f.Op)
		}
		held += FrameSize(len(f.Payload))
		if !fr.buffered() {
			if _, err := c.Write(fr.consumed(held)); err != nil {
				return fmt.Errorf("echo to parent: %w", err)
			}
			held = 0
		}
	}
}

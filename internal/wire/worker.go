package wire

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The proc-sharded backend re-executes its own binary to get worker
// processes; this environment pair is the re-exec mode marker. Env vars
// rather than argv flags so any host binary — CLIs, daemons, `go test`
// binaries with their own flag sets — can enter worker mode without
// fighting its flag parser.
const (
	envWorker = "ADAQP_WIRE_WORKER"
	envDir    = "ADAQP_WIRE_DIR"
)

const (
	// dialTimeout bounds socket dials and startup handshakes; it only
	// matters when a process failed to come up at all.
	dialTimeout = 10 * time.Second
	// reapTimeout bounds how long Shutdown waits for a worker to
	// acknowledge and exit before killing it.
	reapTimeout = 5 * time.Second
)

// SocketPath is worker index's listening socket inside dir.
func SocketPath(dir string, index int) string {
	return filepath.Join(dir, fmt.Sprintf("w%d.sock", index))
}

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
	dir := os.Getenv(envDir)
	if err != nil || dir == "" || index < 0 {
		fmt.Fprintf(os.Stderr, "wire worker: bad re-exec environment %s=%q %s=%q\n", envWorker, v, envDir, dir)
		os.Exit(2)
	}
	if err := runWorker(dir, index); err != nil {
		fmt.Fprintf(os.Stderr, "wire worker %d: %v\n", index, err)
		os.Exit(1)
	}
	os.Exit(0)
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

func dialRetry(path string, timeout time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(timeout)
	for {
		c, err := net.Dial("unix", path)
		if err == nil {
			return c, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// workerState is one worker process: the far end of one spoke of the star.
// Its only data connection is the parent's, and every data frame the parent
// sends it goes straight back on that connection, byte for byte and in
// order. Workers never talk to each other.
//
// The echo is the reader's buffer itself: the complete frames one read
// brought in sit back to back in it and leave in one write the moment the
// input holds no further complete frame — never on a timer, never held
// across a blocking read, never copied.
type workerState struct {
	index int

	claimed   atomic.Bool   // a connection has identified itself as the parent
	parentSet chan struct{} // closed once one did
	result    chan error    // first terminal outcome (nil = clean shutdown)
}

func newWorkerState(index int) *workerState {
	return &workerState{
		index:     index,
		parentSet: make(chan struct{}),
		result:    make(chan error, 1),
	}
}

func runWorker(dir string, index int) error {
	l, err := net.Listen("unix", SocketPath(dir, index))
	if err != nil {
		return err
	}
	defer l.Close()

	w := newWorkerState(index)
	go w.acceptLoop(l)

	// A parent that never dials is gone: do not outlive it.
	select {
	case <-w.parentSet:
	case err := <-w.result:
		return err
	case <-time.After(dialTimeout):
		return errors.New("parent connection never arrived")
	}
	return <-w.result
}

func (w *workerState) fail(err error) {
	select {
	case w.result <- err:
	default:
	}
}

func (w *workerState) acceptLoop(l net.Listener) {
	for {
		c, err := l.Accept()
		if err != nil {
			// After a clean shutdown this is the listener closing, and the
			// outcome is already decided.
			w.fail(fmt.Errorf("accept: %w", err))
			return
		}
		go w.handleConn(c)
	}
}

// handleConn serves a freshly accepted connection if its hello frame is the
// parent's. There is one parent: any other connection, and a second one
// claiming to be the parent, is a protocol error and is dropped.
func (w *workerState) handleConn(c net.Conn) {
	fr := newFrameReader(c)
	hello, err := fr.next()
	if err != nil || hello.Op != OpHello || hello.Src != ParentID || !w.claimed.CompareAndSwap(false, true) {
		c.Close()
		return
	}
	close(w.parentSet)
	w.fail(w.parentLoop(c, fr))
}

// parentLoop acknowledges readiness, then echoes the parent's data frames
// until OpShutdown, which it answers with the worker's OpStats. It is the
// only writer to the parent.
func (w *workerState) parentLoop(c net.Conn, fr *frameReader) error {
	if _, err := c.Write(AppendFrame(nil, Frame{Op: OpReady, Src: uint16(w.index)})); err != nil {
		return fmt.Errorf("ready ack: %w", err)
	}
	var s Stats
	held := 0 // framed bytes of data frames read and not yet echoed
	for {
		f, err := fr.next()
		if err != nil {
			return fmt.Errorf("parent read: %w", err)
		}
		size := FrameSize(len(f.Payload))
		switch f.Op {
		case OpData:
			s.Frames++
			s.Bytes += uint64(size)
			held += size
			if !fr.buffered() {
				_, err = c.Write(fr.consumed(held))
				held = 0
			}
		case OpShutdown:
			// The data frames that came in with it leave first, then the report.
			if held > 0 {
				_, err = c.Write(fr.consumed(held + size)[:held])
			}
			if err == nil {
				_, err = c.Write(AppendFrame(nil, Frame{Op: OpStats, Src: uint16(w.index), Payload: appendStats(nil, s)}))
			}
			return err
		default:
			return fmt.Errorf("unexpected op %d from the parent", f.Op)
		}
		if err != nil {
			return fmt.Errorf("echo to parent: %w", err)
		}
	}
}

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
// processes; this environment triple is the re-exec mode marker. Env vars
// rather than argv flags so any host binary — CLIs, daemons, `go test`
// binaries with their own flag sets — can enter worker mode without
// fighting its flag parser.
const (
	envWorker  = "ADAQP_WIRE_WORKER"
	envDir     = "ADAQP_WIRE_DIR"
	envWorkers = "ADAQP_WIRE_WORKERS"
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
	workers, err2 := strconv.Atoi(os.Getenv(envWorkers))
	dir := os.Getenv(envDir)
	if err != nil || err2 != nil || dir == "" || index < 0 || index >= workers {
		fmt.Fprintf(os.Stderr, "wire worker: bad re-exec environment %s=%q %s=%q %s=%q\n",
			envWorker, v, envWorkers, os.Getenv(envWorkers), envDir, dir)
		os.Exit(2)
	}
	if err := runWorker(dir, index, workers); err != nil {
		fmt.Fprintf(os.Stderr, "wire worker %d: %v\n", index, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// pendingLimit bounds a connection's pending buffer: a frame that would
// take it past the limit flushes it first, and a frame larger than the
// limit is written through without being copied.
const pendingLimit = 256 << 10

// conn is a socket with a write lock, so frames from concurrent writers
// interleave at frame granularity, never mid-frame. It has two ways in:
// writeFrames puts a post on the wire at once, enqueue defers to flush.
type conn struct {
	c    net.Conn
	mu   sync.Mutex
	pend []byte      // enqueued frames not yet written
	hdrs []byte      // writeFrames' encoded headers
	vecs [][]byte    // writeFrames' header and payload slices
	bufs net.Buffers // vecs as WriteTo consumes it (a field so it is not reallocated per write)
}

// writeFrames writes frames as one vectored write — each header from a
// reused buffer, each payload in place — behind anything still pending. It
// returns their framed size.
func (wc *conn) writeFrames(frames ...Frame) (int, error) {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	if err := wc.flushLocked(); err != nil {
		return 0, err
	}
	return wc.writeLocked(frames...)
}

func (wc *conn) writeLocked(frames ...Frame) (int, error) {
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

// enqueue copies f's encoding into the pending buffer; the caller owes a
// flush before it next blocks. f.Payload may alias a buffer the caller is
// about to reuse.
func (wc *conn) enqueue(f Frame) error {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	if size := FrameSize(len(f.Payload)); len(wc.pend)+size > pendingLimit {
		if err := wc.flushLocked(); err != nil {
			return err
		}
		if size > pendingLimit {
			_, err := wc.writeLocked(f)
			return err
		}
	}
	wc.pend = AppendFrame(wc.pend, f)
	return nil
}

// flush writes the pending buffer out, if any.
func (wc *conn) flush() error {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	return wc.flushLocked()
}

func (wc *conn) flushLocked() error {
	if len(wc.pend) == 0 {
		return nil
	}
	_, err := wc.c.Write(wc.pend)
	wc.pend = wc.pend[:0]
	return err
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

// workerState is one worker process's routing state. The worker owns the
// ranks congruent to its index mod the worker count: the parent sends it
// every data frame originating from those ranks, and it forwards each to
// the destination shard's owner (itself included), which delivers the
// frame back to the parent.
//
// One goroutine serves each inbound connection. It enqueues routed frames
// on their target connections and flushes every target as soon as its own
// input holds no further complete frame — never on a timer, never holding a
// frame across a blocking read — so however many frames one read brought in
// leave in one write per target.
type workerState struct {
	index   int
	workers int

	mu     sync.Mutex
	peers  []*conn // outbound connections, dialed by us
	parent *conn

	parentSet chan struct{} // closed once the parent's connection arrived
	done      chan struct{} // closed when shutdown begins
	result    chan error    // first terminal outcome (nil = clean shutdown)

	bytesRead    atomic.Uint64
	bytesWritten atomic.Uint64
	framesRouted atomic.Uint64
}

func newWorkerState(index, workers int) *workerState {
	return &workerState{
		index:     index,
		workers:   workers,
		peers:     make([]*conn, workers),
		parentSet: make(chan struct{}),
		done:      make(chan struct{}),
		result:    make(chan error, 1),
	}
}

func runWorker(dir string, index, workers int) error {
	l, err := net.Listen("unix", SocketPath(dir, index))
	if err != nil {
		return err
	}
	defer l.Close()

	w := newWorkerState(index, workers)
	go w.acceptLoop(l)

	// Dial every other worker's socket (our outbound routing channels),
	// retrying while peers are still binding theirs.
	for j := 0; j < workers; j++ {
		if j == index {
			continue
		}
		c, err := dialRetry(SocketPath(dir, j), dialTimeout)
		if err != nil {
			return fmt.Errorf("dial peer %d: %w", j, err)
		}
		pc := &conn{c: c}
		if _, err := pc.writeFrames(Frame{Op: OpHello, Src: uint16(index)}); err != nil {
			return fmt.Errorf("hello to peer %d: %w", j, err)
		}
		w.mu.Lock()
		w.peers[j] = pc
		w.mu.Unlock()
	}

	// The parent dials us like a peer does; once its connection is
	// identified, acknowledge readiness. The parent holds all data
	// traffic until every worker has acknowledged.
	select {
	case <-w.parentSet:
	case <-time.After(dialTimeout):
		return errors.New("parent connection never arrived")
	}
	if _, err := w.parent.writeFrames(Frame{Op: OpReady, Src: uint16(index)}); err != nil {
		return fmt.Errorf("ready ack: %w", err)
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
			select {
			case <-w.done:
			default:
				w.fail(fmt.Errorf("accept: %w", err))
			}
			return
		}
		go w.handleConn(c)
	}
}

// handleConn identifies a freshly accepted connection by its hello frame
// and runs the matching reader loop.
func (w *workerState) handleConn(c net.Conn) {
	fr := newFrameReader(c)
	hello, err := fr.next()
	if err != nil || hello.Op != OpHello {
		c.Close()
		return
	}
	if hello.Src == ParentID {
		w.mu.Lock()
		dup := w.parent != nil
		if !dup {
			w.parent = &conn{c: c}
		}
		w.mu.Unlock()
		if dup {
			// There is one parent: a second claim is a protocol error, and
			// the connection making it is dropped.
			c.Close()
			return
		}
		close(w.parentSet)
		w.parentLoop(fr)
		return
	}
	// Inbound peer connection: frames another worker routed to us for
	// delivery. Wait for the parent connection — it is the only place
	// these frames can go.
	<-w.parentSet
	w.peerLoop(fr)
}

// peerLoop delivers the frames one peer routed here to the parent.
func (w *workerState) peerLoop(fr *frameReader) {
	for {
		f, err := fr.next()
		if err != nil {
			// A peer closing its outbound connection is how shutdown
			// looks from here; a mid-run crash surfaces in the parent as
			// a dead worker process, so it is not reported again.
			return
		}
		if f.Op == OpData {
			w.bytesRead.Add(uint64(FrameSize(len(f.Payload))))
			err = w.forward(w.parent, f)
		}
		if err == nil && !fr.buffered() {
			err = w.parent.flush()
		}
		if err != nil {
			w.fail(fmt.Errorf("deliver to parent: %w", err))
			return
		}
	}
}

// parentLoop services the parent connection: data frames are routed to
// their destination shard, OpShutdown flushes every target, answers with
// OpStats and ends the worker.
func (w *workerState) parentLoop(fr *frameReader) {
	for {
		f, err := fr.next()
		if err != nil {
			w.fail(fmt.Errorf("parent read: %w", err))
			return
		}
		switch f.Op {
		case OpData:
			w.bytesRead.Add(uint64(FrameSize(len(f.Payload))))
			w.framesRouted.Add(1)
			err = w.route(f)
		case OpShutdown:
			close(w.done)
			if err = w.flushAll(); err == nil {
				_, err = w.parent.writeFrames(Frame{
					Op:  OpStats,
					Src: uint16(w.index),
					Payload: appendStats(nil, Stats{
						BytesRead:    w.bytesRead.Load(),
						BytesWritten: w.bytesWritten.Load(),
						FramesRouted: w.framesRouted.Load(),
					}),
				})
			}
			w.fail(err)
			return
		}
		if err == nil && !fr.buffered() {
			err = w.flushAll()
		}
		if err != nil {
			w.fail(err)
			return
		}
	}
}

func (w *workerState) route(f Frame) error {
	shard := int(f.Dst) % w.workers
	target := w.target(shard)
	if target == nil {
		return fmt.Errorf("no connection to peer %d", shard)
	}
	if err := w.forward(target, f); err != nil {
		return fmt.Errorf("route to shard %d: %w", shard, err)
	}
	return nil
}

// forward enqueues f on target. The frame is counted first: once the parent
// holds the run's last frame it may send OpShutdown, and parentLoop answers
// with these counters from another goroutine.
func (w *workerState) forward(target *conn, f Frame) error {
	w.bytesWritten.Add(uint64(FrameSize(len(f.Payload))))
	return target.enqueue(f)
}

// target is where frames for shard go: the parent for our own shard, else
// the outbound connection to its owner (nil while it is not dialed yet).
func (w *workerState) target(shard int) *conn {
	w.mu.Lock()
	defer w.mu.Unlock()
	if shard == w.index {
		return w.parent
	}
	return w.peers[shard]
}

// flushAll flushes every target this worker writes data frames to.
func (w *workerState) flushAll() error {
	for shard := 0; shard < w.workers; shard++ {
		if pc := w.target(shard); pc != nil {
			if err := pc.flush(); err != nil {
				return fmt.Errorf("flush to shard %d: %w", shard, err)
			}
		}
	}
	return nil
}

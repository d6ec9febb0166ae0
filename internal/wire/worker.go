package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
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

// conn is a socket with a write lock and a reusable encode buffer; frames
// from concurrent routers interleave at frame granularity, never mid-frame.
type conn struct {
	c   net.Conn
	mu  sync.Mutex
	buf []byte
}

// writeFrame encodes and writes f, returning its framed size.
func (wc *conn) writeFrame(f Frame) (int, error) {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	wc.buf = AppendFrame(wc.buf[:0], f)
	return wc.c.Write(wc.buf)
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

func runWorker(dir string, index, workers int) error {
	l, err := net.Listen("unix", SocketPath(dir, index))
	if err != nil {
		return err
	}
	defer l.Close()

	w := &workerState{
		index:     index,
		workers:   workers,
		peers:     make([]*conn, workers),
		parentSet: make(chan struct{}),
		done:      make(chan struct{}),
		result:    make(chan error, 1),
	}
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
		if _, err := pc.writeFrame(Frame{Op: OpHello, Src: uint16(index)}); err != nil {
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
	if _, err := w.parent.writeFrame(Frame{Op: OpReady, Src: uint16(index)}); err != nil {
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
	br := bufio.NewReaderSize(c, readChunk)
	hello, err := ReadFrame(br)
	if err != nil || hello.Op != OpHello {
		c.Close()
		return
	}
	if hello.Src == ParentID {
		pc := &conn{c: c}
		w.mu.Lock()
		w.parent = pc
		w.mu.Unlock()
		close(w.parentSet)
		w.parentLoop(br)
		return
	}
	// Inbound peer connection: frames another worker routed to us for
	// delivery. Wait for the parent connection — it is the only place
	// these frames can go.
	<-w.parentSet
	for {
		f, err := ReadFrame(br)
		if err != nil {
			// A peer closing its outbound connection is how shutdown
			// looks from here; a mid-run crash surfaces in the parent as
			// a dead worker process, so it is not reported again.
			return
		}
		if f.Op != OpData {
			continue
		}
		w.bytesRead.Add(uint64(FrameSize(len(f.Payload))))
		// Counted before the write: once the parent has the run's last frame
		// it may send OpShutdown, and parentLoop answers with these counters
		// from another goroutine.
		w.bytesWritten.Add(uint64(FrameSize(len(f.Payload))))
		if _, err := w.parent.writeFrame(f); err != nil {
			w.fail(fmt.Errorf("deliver to parent: %w", err))
			return
		}
	}
}

// parentLoop services the parent connection: data frames are routed to
// their destination shard, OpShutdown answers with OpStats and ends the
// worker.
func (w *workerState) parentLoop(br *bufio.Reader) {
	for {
		f, err := ReadFrame(br)
		if err != nil {
			w.fail(fmt.Errorf("parent read: %w", err))
			return
		}
		switch f.Op {
		case OpData:
			w.bytesRead.Add(uint64(FrameSize(len(f.Payload))))
			w.framesRouted.Add(1)
			if err := w.route(f); err != nil {
				w.fail(err)
				return
			}
		case OpShutdown:
			close(w.done)
			stats := Stats{
				BytesRead:    w.bytesRead.Load(),
				BytesWritten: w.bytesWritten.Load(),
				FramesRouted: w.framesRouted.Load(),
			}
			_, err := w.parent.writeFrame(Frame{
				Op:      OpStats,
				Src:     uint16(w.index),
				Payload: appendStats(nil, stats),
			})
			w.fail(err)
			return
		}
	}
}

func (w *workerState) route(f Frame) error {
	shard := int(f.Dst) % w.workers
	var target *conn
	if shard == w.index {
		target = w.parent
	} else {
		w.mu.Lock()
		target = w.peers[shard]
		w.mu.Unlock()
		if target == nil {
			return fmt.Errorf("no connection to peer %d", shard)
		}
	}
	n, err := target.writeFrame(f)
	if err != nil {
		return fmt.Errorf("route to shard %d: %w", shard, err)
	}
	w.bytesWritten.Add(uint64(n))
	return nil
}

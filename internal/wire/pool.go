package wire

import (
	"cmp"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// startTimeout bounds how long StartPool waits for a worker's ready
	// acknowledgment; it only matters when a process failed to come up.
	startTimeout = 10 * time.Second
	// reapTimeout bounds how long Shutdown waits for a worker to exit after
	// its half-close before killing it.
	reapTimeout = 5 * time.Second
)

// PoolStats is a pool's data-plane accounting, kept by the parent alone:
// OpData frames and their framed sizes. A pool counts from StartPool on;
// Sub takes the part between two snapshots.
type PoolStats struct {
	// SentFrames/SentBytes count data frames the parent wrote to workers.
	SentFrames, SentBytes uint64
	// DeliveredFrames/DeliveredBytes count data frames workers echoed back
	// to the parent.
	DeliveredFrames, DeliveredBytes uint64
}

// Add accumulates o into s (for callers aggregating across uses of a
// pool, e.g. one per training run).
func (s *PoolStats) Add(o PoolStats) {
	s.SentFrames += o.SentFrames
	s.SentBytes += o.SentBytes
	s.DeliveredFrames += o.DeliveredFrames
	s.DeliveredBytes += o.DeliveredBytes
}

// Sub returns what s counts beyond start, an earlier snapshot of the same
// pool.
func (s PoolStats) Sub(start PoolStats) PoolStats {
	return PoolStats{s.SentFrames - start.SentFrames, s.SentBytes - start.SentBytes,
		s.DeliveredFrames - start.DeliveredFrames, s.DeliveredBytes - start.DeliveredBytes}
}

// poolProc is one worker process from the parent's side.
type poolProc struct {
	cmd      *exec.Cmd
	conn     *conn
	ready    chan struct{}
	waitDone chan struct{}
	waitErr  error
}

// acknowledge records the worker's OpReady. There is one per worker: a
// second is a protocol error. Only the connection's reader calls it.
func (pp *poolProc) acknowledge() error {
	select {
	case <-pp.ready:
		return errors.New("second ready acknowledgment")
	default:
		close(pp.ready)
		return nil
	}
}

// Pool is the hub of a worker fleet: it re-executes the current binary
// into worker processes, each born holding one end of its own socket pair
// with the parent, and sends every data frame to the worker owning its
// source rank's shard, which sends it straight back. Delivered frames
// arrive on the onData callback from internal reader goroutines, one per
// worker; onError reports a broken fleet (a dead worker or socket) outside
// any send call. A fleet serves until Shutdown or Kill.
type Pool struct {
	workers int
	procs   []*poolProc
	onData  func(Frame)
	onError func(error)

	sentFrames, sentBytes           atomic.Uint64
	deliveredFrames, deliveredBytes atomic.Uint64

	shuttingDown atomic.Bool
	readers      sync.WaitGroup
}

// StartPool spawns workers worker processes and blocks until every one
// acknowledged readiness. Each worker inherits its connection at spawn, so
// nothing is created on the filesystem: dir is ignored, and stays only for
// callers that still pass one. onData receives every delivered data frame;
// its payload aliases the reader's buffer and is valid only until onData
// returns, so a consumer that keeps the bytes copies them into storage of
// its choosing. Both callbacks may be invoked from internal goroutines. On
// systems without Unix-domain socket pairs it returns an error.
func StartPool(dir string, workers int, onData func(Frame), onError func(error)) (*Pool, error) {
	if workers < 1 {
		return nil, fmt.Errorf("wire: pool needs at least one worker, got %d", workers)
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("wire: resolve executable for re-exec: %w", err)
	}
	p := &Pool{
		workers: workers,
		onData:  onData,
		onError: onError,
	}
	for i := 0; i < workers; i++ {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), envWorker+"="+strconv.Itoa(i))
		cmd.Stderr = os.Stderr
		c, err := spawn(cmd)
		if err != nil {
			p.Kill()
			return nil, fmt.Errorf("wire: start worker %d: %w", i, err)
		}
		pp := &poolProc{cmd: cmd, conn: &conn{c: c}, ready: make(chan struct{}), waitDone: make(chan struct{})}
		p.procs = append(p.procs, pp)
		go func() {
			pp.waitErr = pp.cmd.Wait()
			close(pp.waitDone)
			if !p.shuttingDown.Load() {
				p.fail(fmt.Errorf("wire: worker %d exited mid-run: %v", i, pp.waitErr))
			}
		}()
		p.readers.Add(1)
		go p.readLoop(i, pp)
	}
	for i, pp := range p.procs {
		select {
		case <-pp.ready:
		case <-pp.waitDone:
			p.Kill()
			return nil, fmt.Errorf("wire: worker %d exited before ready (is wire.MaybeWorker wired into this binary's main/TestMain?): %v", i, pp.waitErr)
		case <-time.After(startTimeout):
			p.Kill()
			return nil, fmt.Errorf("wire: worker %d never reported ready (is wire.MaybeWorker wired into this binary's main/TestMain?)", i)
		}
	}
	return p, nil
}

func (p *Pool) fail(err error) {
	if p.onError != nil {
		p.onError(err)
	}
}

// readLoop services one worker connection until it ends: at EOF after a
// shutdown, or at a read or protocol error. It counts a data frame before
// it hands it to onData.
func (p *Pool) readLoop(i int, pp *poolProc) {
	defer p.readers.Done()
	fr := newFrameReader(pp.conn.c)
	for {
		f, err := fr.next()
		switch {
		case err != nil:
		case f.Op == OpReady:
			err = pp.acknowledge()
		case int(f.Src)%p.workers != i:
			// A worker echoes; it cannot have been sent another shard's frame.
			err = fmt.Errorf("frame from rank %d is not of this worker's shard", f.Src)
		default:
			p.deliveredFrames.Add(1)
			p.deliveredBytes.Add(uint64(FrameSize(len(f.Payload))))
			p.onData(f)
		}
		if err != nil {
			if !p.shuttingDown.Load() {
				p.fail(fmt.Errorf("wire: worker %d connection: %w", i, err))
			}
			return
		}
	}
}

// PIDs returns the worker processes' ids, by worker index.
func (p *Pool) PIDs() []int {
	pids := make([]int, len(p.procs))
	for i, pp := range p.procs {
		pids[i] = pp.cmd.Process.Pid
	}
	return pids
}

// Send sends one data frame into the fleet: a post of one.
func (p *Pool) Send(f Frame) error {
	return p.SendPost([]Frame{f})
}

// SendPost sends a post — the data frames one rank ships in one collective
// — to the worker owning the source rank's shard, as one vectored write
// (frames of different source shards go out as one write per run of equal
// shards). Safe for concurrent use. The payloads are fully written before
// SendPost returns, so the caller may reuse them and post.
func (p *Pool) SendPost(post []Frame) error {
	for len(post) > 0 {
		shard := int(post[0].Src) % p.workers
		k := 1
		for k < len(post) && int(post[k].Src)%p.workers == shard {
			k++
		}
		n, err := p.procs[shard].conn.writeFrames(post[:k]...)
		if err != nil {
			return fmt.Errorf("wire: send to worker %d: %w", shard, err)
		}
		p.sentFrames.Add(uint64(k))
		p.sentBytes.Add(uint64(n))
		post = post[k:]
	}
	return nil
}

// Stats returns the pool's counts since StartPool. A frame whose delivery
// the caller has seen is in them.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		SentFrames:      p.sentFrames.Load(),
		SentBytes:       p.sentBytes.Load(),
		DeliveredFrames: p.deliveredFrames.Load(),
		DeliveredBytes:  p.deliveredBytes.Load(),
	}
}

// Shutdown ends the fleet gracefully. It half-closes every worker's
// connection, so each worker echoes what it holds, reads EOF and exits; it
// waits for every exit, killing a worker still running after the reap
// timeout so a wedged one never leaks past a run, and then for the
// readers, which deliver every echo before they read their worker's EOF.
// No callback runs after Shutdown returns. It returns the pool's counts
// since StartPool and the first problem (nil when every worker exited 0 on
// its own). Call it with no send in progress.
func (p *Pool) Shutdown() (PoolStats, error) {
	p.shuttingDown.Store(true)
	var err error
	for i, pp := range p.procs {
		// Every connection is a socket-pair end (spawn).
		if cerr := pp.conn.c.(*net.UnixConn).CloseWrite(); cerr != nil {
			err = cmp.Or(err, fmt.Errorf("wire: half-close worker %d: %w", i, cerr))
		}
	}
	for i, pp := range p.procs {
		select {
		case <-pp.waitDone:
		case <-time.After(reapTimeout):
			pp.cmd.Process.Kill()
			<-pp.waitDone
			err = cmp.Or(err, fmt.Errorf("wire: worker %d killed after shutdown timeout", i))
		}
		if pp.waitErr != nil {
			err = cmp.Or(err, fmt.Errorf("wire: worker %d exit: %v", i, pp.waitErr))
		}
	}
	p.readers.Wait()
	for _, pp := range p.procs {
		pp.conn.c.Close()
	}
	return p.Stats(), err
}

// Kill force-terminates the fleet without a handshake (the abort path:
// the run failed, or the fleet itself broke). It reaps every process that
// was started and is safe to call at any point after StartPool began.
func (p *Pool) Kill() {
	p.shuttingDown.Store(true)
	for _, pp := range p.procs {
		pp.cmd.Process.Kill()
		pp.conn.c.Close()
	}
	for _, pp := range p.procs {
		select {
		case <-pp.waitDone:
		case <-time.After(reapTimeout):
		}
	}
}

package wire

import (
	"bytes"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// collector gathers delivered frames from the pool's reader goroutines —
// copying each payload, which is the reader's until onData returns — and
// lets the test block until an expected count arrived.
type collector struct {
	mu     sync.Mutex
	frames []Frame
	grew   chan struct{}
}

func newCollector() *collector {
	return &collector{grew: make(chan struct{}, 1)}
}

func (c *collector) onData(f Frame) {
	f.Payload = slices.Clone(f.Payload)
	c.mu.Lock()
	c.frames = append(c.frames, f)
	c.mu.Unlock()
	select {
	case c.grew <- struct{}{}:
	default:
	}
}

func (c *collector) waitFor(t *testing.T, n int) []Frame {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		c.mu.Lock()
		got := len(c.frames)
		c.mu.Unlock()
		if got >= n {
			c.mu.Lock()
			defer c.mu.Unlock()
			return append([]Frame(nil), c.frames...)
		}
		select {
		case <-c.grew:
		case <-deadline:
			t.Fatalf("timed out waiting for deliveries: have %d, want %d", got, n)
		}
	}
}

// TestPoolRoundTrip spawns a real two-worker fleet (re-exec, each worker
// holding one end of a Unix-domain socket pair), sends frames between four ranks — same-shard, cross-shard, and
// self-addressed — and checks that every payload comes back intact and
// that the counts Shutdown returns balance. That each worker echoed only
// frames of its source shard the reader checks for itself
// (TestPoolRejectsAnotherShardsFrame).
func TestPoolRoundTrip(t *testing.T) {
	const workers = 2
	col := newCollector()
	errc := make(chan error, 8)
	pool, err := StartPool("", workers, col.onData, func(err error) { errc <- err })
	if err != nil {
		t.Fatal(err)
	}
	killed := false
	defer func() {
		if !killed {
			pool.Kill()
		}
	}()

	// Every ordered (src, dst) pair over 4 ranks, each with a distinct
	// payload. Ranks 0,2 live on worker 0 and ranks 1,3 on worker 1, so
	// the set covers same-shard, cross-shard, and src==dst frames.
	type sent struct {
		f Frame
	}
	var sends []sent
	var wantSentBytes uint64
	seq := uint32(0)
	for src := 0; src < 4; src++ {
		for dst := 0; dst < 4; dst++ {
			payload := []byte(fmt.Sprintf("payload %d->%d %s", src, dst, bytes.Repeat([]byte{byte(seq)}, src+dst)))
			f := Frame{Op: OpData, Seq: seq, Src: uint16(src), Dst: uint16(dst), Payload: payload}
			sends = append(sends, sent{f})
			wantSentBytes += uint64(FrameSize(len(payload)))
			seq++
		}
	}
	for _, s := range sends {
		if err := pool.Send(s.f); err != nil {
			t.Fatal(err)
		}
	}

	delivered := col.waitFor(t, len(sends))
	byKey := make(map[uint32]Frame, len(delivered))
	for _, f := range delivered {
		if _, dup := byKey[f.Seq]; dup {
			t.Fatalf("seq %d delivered twice", f.Seq)
		}
		byKey[f.Seq] = f
	}
	for _, s := range sends {
		got, ok := byKey[s.f.Seq]
		if !ok {
			t.Fatalf("seq %d never delivered", s.f.Seq)
		}
		if got.Src != s.f.Src || got.Dst != s.f.Dst || !bytes.Equal(got.Payload, s.f.Payload) {
			t.Fatalf("seq %d corrupted in flight: got src=%d dst=%d %q, want src=%d dst=%d %q",
				s.f.Seq, got.Src, got.Dst, got.Payload, s.f.Src, s.f.Dst, s.f.Payload)
		}
	}

	stats, err := pool.Shutdown()
	killed = true
	if err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case err := <-errc:
		t.Fatalf("pool reported an error during a clean run: %v", err)
	default:
	}

	if stats.SentFrames != uint64(len(sends)) || stats.DeliveredFrames != uint64(len(sends)) {
		t.Errorf("frames: sent %d delivered %d, want %d each", stats.SentFrames, stats.DeliveredFrames, len(sends))
	}
	if stats.SentBytes != wantSentBytes {
		t.Errorf("SentBytes = %d, want %d", stats.SentBytes, wantSentBytes)
	}
	checkConservation(t, stats)
}

// checkConservation asserts what holds for every gracefully shut down
// pool: every frame sent came back, byte for byte.
func checkConservation(t *testing.T, stats PoolStats) {
	t.Helper()
	if stats.DeliveredFrames != stats.SentFrames || stats.DeliveredBytes != stats.SentBytes {
		t.Errorf("delivered %d frames / %d bytes, sent %d / %d", stats.DeliveredFrames, stats.DeliveredBytes, stats.SentFrames, stats.SentBytes)
	}
}

// devicePost is what rank src of n ships in one collective: one frame to
// every other rank.
func devicePost(seq uint32, src, n int, payload func(dst int) []byte) []Frame {
	var post []Frame
	for dst := 0; dst < n; dst++ {
		if dst != src {
			post = append(post, Frame{Op: OpData, Seq: seq, Src: uint16(src), Dst: uint16(dst), Payload: payload(dst)})
		}
	}
	return post
}

// TestPoolMixedPost sends, as single posts through a real two-worker
// fleet, every kind of frame the data path treats differently: same-shard
// and cross-shard, empty, small, and several times larger than a reader's
// initial buffer, which grows to hold it. All come back intact and the
// books balance.
func TestPoolMixedPost(t *testing.T) {
	const workers, ranks = 2, 8
	col := newCollector()
	errc := make(chan error, 8)
	pool, err := StartPool("", workers, col.onData, func(err error) { errc <- err })
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Kill()
	payload := func(src int) func(int) []byte {
		return func(dst int) []byte {
			switch dst {
			case (src + 1) % ranks:
				return nil
			case (src + 2) % ranks:
				return bytes.Repeat([]byte{byte(src), byte(dst), 0xEE}, readChunk+1)
			}
			return bytes.Repeat([]byte{byte(16*src + dst)}, 100*dst+src)
		}
	}
	want := map[[2]uint16][]byte{}
	for src := 0; src < ranks; src++ {
		post := devicePost(uint32(src), src, ranks, payload(src))
		for _, f := range post {
			want[[2]uint16{f.Src, f.Dst}] = f.Payload
		}
		if err := pool.SendPost(post); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range col.waitFor(t, len(want)) {
		key := [2]uint16{f.Src, f.Dst}
		sent, ok := want[key]
		if !ok || f.Seq != uint32(f.Src) || !bytes.Equal(f.Payload, sent) {
			t.Fatalf("frame %d->%d seq %d (%d bytes) is not what was sent, or came twice", f.Src, f.Dst, f.Seq, len(f.Payload))
		}
		delete(want, key)
	}
	stats, err := pool.Shutdown()
	if err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case err := <-errc:
		t.Fatalf("pool reported an error during a clean run: %v", err)
	default:
	}
	if stats.SentFrames != ranks*(ranks-1) {
		t.Errorf("SentFrames = %d, want %d", stats.SentFrames, ranks*(ranks-1))
	}
	checkConservation(t, stats)
}

// TestPoolShutdownRightAfterPost shuts the fleet down with a post still in
// flight, over and over: every worker must echo what it holds before it
// reads the half-close's EOF and exits 0, and Shutdown must not return
// before the echoes are delivered, or the books of some iteration will not
// balance.
func TestPoolShutdownRightAfterPost(t *testing.T) {
	const workers, ranks = 2, 8
	iterations := 200
	if raceEnabled {
		iterations = 10 // the race runtime holds every exiting worker for a second
	}
	for i := 0; i < iterations; i++ {
		var delivered atomic.Uint64
		pool, err := StartPool("", workers, func(Frame) { delivered.Add(1) }, func(err error) { t.Errorf("iteration %d: %v", i, err) })
		if err != nil {
			t.Fatal(err)
		}
		post := devicePost(uint32(i), i%ranks, ranks, func(dst int) []byte { return bytes.Repeat([]byte{byte(dst)}, 1000*dst) })
		if err := pool.SendPost(post); err != nil {
			pool.Kill()
			t.Fatal(err)
		}
		stats, err := pool.Shutdown()
		if err != nil {
			pool.Kill()
			t.Fatalf("iteration %d: shutdown: %v", i, err)
		}
		if stats.SentFrames != ranks-1 || delivered.Load() != ranks-1 {
			t.Fatalf("iteration %d: sent %d frames, %d delivered, want %d", i, stats.SentFrames, delivered.Load(), ranks-1)
		}
		checkConservation(t, stats)
		if t.Failed() {
			t.Fatalf("iteration %d: %+v", i, stats)
		}
	}
}

// TestPoolStatsCountFromStart: a pool's counts run from StartPool on,
// across posts, and one snapshot subtracted from a later one is what was
// sent and delivered between them. Shutdown returns the whole count.
func TestPoolStatsCountFromStart(t *testing.T) {
	const workers, ranks = 2, 8
	col := newCollector()
	pool, err := StartPool("", workers, col.onData, func(err error) { t.Errorf("pool: %v", err) })
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Kill()
	var last PoolStats
	for i := range 20 {
		post := devicePost(uint32(i), i%ranks, ranks, func(dst int) []byte { return bytes.Repeat([]byte{byte(dst)}, 1000*dst+i) })
		if err := pool.SendPost(post); err != nil {
			t.Fatal(err)
		}
		var size uint64
		for _, f := range post {
			size += uint64(FrameSize(len(f.Payload)))
		}
		col.waitFor(t, (ranks-1)*(i+1))
		now := pool.Stats()
		want := PoolStats{SentFrames: ranks - 1, SentBytes: size, DeliveredFrames: ranks - 1, DeliveredBytes: size}
		if got := now.Sub(last); got != want {
			t.Fatalf("post %d: counted %+v since the last snapshot, want %+v", i, got, want)
		}
		last = now
	}
	stats, err := pool.Shutdown()
	if err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if stats != last {
		t.Errorf("Shutdown returned %+v, want the count since StartPool, %+v", stats, last)
	}
}

// TestPoolSecondReadyIsProtocolError: a worker acknowledges readiness once.
// A second OpReady fails the pool through onError instead of panicking the
// parent.
func TestPoolSecondReadyIsProtocolError(t *testing.T) {
	ours, theirs := net.Pipe()
	defer ours.Close()
	defer theirs.Close()
	errc := make(chan error, 1)
	p := &Pool{workers: 1, onError: func(err error) { errc <- err }}
	pp := &poolProc{conn: &conn{c: ours}, ready: make(chan struct{})}
	p.readers.Add(1)
	go p.readLoop(0, pp)
	ready := AppendFrame(nil, Frame{Op: OpReady})
	if _, err := theirs.Write(append(ready, ready...)); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if !strings.Contains(err.Error(), "second ready") {
			t.Errorf("onError got %v, want the protocol error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a second OpReady was not reported")
	}
	<-pp.ready
	p.readers.Wait()
}

// TestPoolRejectsAnotherShardsFrame: the parent sends worker i only frames
// from ranks of shard i, and a worker echoes, so a frame from another
// shard coming back on i's connection is a protocol error — reported
// through onError, never delivered.
func TestPoolRejectsAnotherShardsFrame(t *testing.T) {
	ours, theirs := net.Pipe()
	defer ours.Close()
	defer theirs.Close()
	errc := make(chan error, 1)
	var delivered atomic.Uint64
	p := &Pool{workers: 2, onData: func(Frame) { delivered.Add(1) }, onError: func(err error) { errc <- err }}
	pp := &poolProc{conn: &conn{c: ours}, ready: make(chan struct{})}
	p.readers.Add(1)
	go p.readLoop(1, pp)
	var in []byte
	in = AppendFrame(in, Frame{Op: OpReady, Src: 1})
	in = AppendFrame(in, Frame{Op: OpData, Src: 3, Dst: 0, Payload: []byte("shard 1: fine")})
	in = AppendFrame(in, Frame{Op: OpData, Src: 2, Dst: 1, Payload: []byte("shard 0: not here")})
	if _, err := theirs.Write(in); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if !strings.Contains(err.Error(), "not of this worker's shard") {
			t.Errorf("onError got %v, want the protocol error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a frame of another shard was not reported")
	}
	p.readers.Wait()
	if n := delivered.Load(); n != 1 {
		t.Errorf("%d frames delivered, want only the one of the worker's own shard", n)
	}
}

// BenchmarkPoolForward is the data path under the load wire-yelp puts on
// it: posts of 7 frames of 9 KiB (a device's post in one collective at 8
// ranks, at that workload's measured mean payload) through a two-worker
// fleet, each timed from the send to the last delivery.
func BenchmarkPoolForward(b *testing.B) {
	const workers, ranks, size = 2, 8, 9 << 10
	delivered := make(chan struct{}, ranks) // a post's deliveries never block the reader
	pool, err := StartPool("", workers, func(Frame) { delivered <- struct{}{} }, func(err error) { b.Error(err) })
	if err != nil {
		b.Fatal(err)
	}
	defer pool.Kill()
	payload := make([]byte, size)
	posts := make([][]Frame, ranks)
	for src := range posts {
		posts[src] = devicePost(0, src, ranks, func(int) []byte { return payload })
	}
	b.SetBytes((ranks - 1) * size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pool.SendPost(posts[i%ranks]); err != nil {
			b.Fatal(err)
		}
		for k := 0; k < ranks-1; k++ {
			<-delivered
		}
	}
	b.StopTimer()
	if _, err := pool.Shutdown(); err != nil {
		b.Fatal(err)
	}
}

// TestPoolKill verifies the abort path reaps the fleet: after Kill, both
// worker processes are gone and their sockets closed, with no error
// callback from the forced teardown.
func TestPoolKill(t *testing.T) {
	errc := make(chan error, 8)
	pool, err := StartPool("", 2, func(Frame) {}, func(err error) { errc <- err })
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Send(Frame{Op: OpData, Src: 0, Dst: 1, Payload: []byte("doomed")}); err != nil {
		t.Fatal(err)
	}
	pool.Kill()
	for _, pp := range pool.procs {
		select {
		case <-pp.waitDone:
		case <-time.After(5 * time.Second):
			t.Fatal("worker not reaped after Kill")
		}
	}
	select {
	case err := <-errc:
		t.Fatalf("Kill leaked an error callback: %v", err)
	default:
	}
}

// TestPoolWorkerKilled: SIGKILL of worker 0 in a live two-worker fleet is
// reported through onError twice, each time naming worker 0 — by its exit,
// and by its connection's EOF, which arrives only if no sibling holds a
// copy of the dead worker's end. Kill then reaps both processes, and a
// fresh pool works.
func TestPoolWorkerKilled(t *testing.T) {
	errc := make(chan error, 8)
	pool, err := StartPool("", 2, func(Frame) {}, func(err error) { errc <- err })
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.procs[0].cmd.Process.Kill(); err != nil {
		pool.Kill()
		t.Fatal(err)
	}
	var exited, broken bool
	for !exited || !broken {
		select {
		case err := <-errc:
			msg := err.Error()
			if !strings.Contains(msg, "worker 0") {
				t.Errorf("onError got %v, want an error naming worker 0", err)
			}
			exited = exited || strings.Contains(msg, "exited mid-run")
			broken = broken || strings.Contains(msg, "connection")
		case <-time.After(startTimeout):
			pool.Kill()
			t.Fatalf("after SIGKILL of worker 0: exit reported %v, connection error reported %v", exited, broken)
		}
	}
	pool.Kill()
	for i, pp := range pool.procs {
		select {
		case <-pp.waitDone:
		default:
			t.Errorf("worker %d not reaped when Kill returned", i)
		}
	}

	col := newCollector()
	fresh, err := StartPool("", 2, col.onData, func(err error) { t.Errorf("fresh pool: %v", err) })
	if err != nil {
		t.Fatalf("fresh pool after a worker death: %v", err)
	}
	defer fresh.Kill()
	f := Frame{Op: OpData, Seq: 1, Src: 1, Dst: 0, Payload: []byte("after the death")}
	if err := fresh.Send(f); err != nil {
		t.Fatal(err)
	}
	checkFrame(t, 0, col.waitFor(t, 1)[0], f)
	stats, err := fresh.Shutdown()
	if err != nil {
		t.Fatalf("fresh pool shutdown: %v", err)
	}
	checkConservation(t, stats)
}

// TestPoolOrphanedWorkerExits: a worker whose parent lets go of its end of
// the pair — no Kill, no Shutdown — reads EOF and exits on its own while
// its sibling lives on. Had the sibling inherited a copy of that end, the
// EOF would never arrive.
func TestPoolOrphanedWorkerExits(t *testing.T) {
	pool, err := StartPool("", 2, func(Frame) {}, func(error) {})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Kill()
	pool.procs[0].conn.c.Close()
	select {
	case <-pool.procs[0].waitDone:
	case <-time.After(startTimeout):
		t.Fatal("worker 0 outlived its connection to the parent")
	}
	select {
	case <-pool.procs[1].waitDone:
		t.Fatalf("worker 1 exited with its sibling: %v", pool.procs[1].waitErr)
	default:
	}
}

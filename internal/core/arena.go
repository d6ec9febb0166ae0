package core

import (
	"math"
	"math/bits"
	"sync"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// Arena is a per-device scratch allocator for the encode/exchange/decode
// hot loop. One arena serves one ExchangeEnv (one device, one run) and is
// only ever touched from that device's goroutine, so its freelists need no
// locking. Buffers migrate between devices through the exchange itself: a
// payload encoded from rank A's arena is released into rank B's after B
// decodes it (see the ownership rules below), and a finished run hands its
// whole arena to the next one (Recycle).
//
// Ownership rules (documented in README "Performance"):
//
//   - A sender encodes each payload into a buffer from its own arena
//     (GetBuf) and hands ownership to the transport; it must never touch
//     or release the buffer afterwards.
//   - RingAll2All / RawAll2All deliveries have exactly one consumer — the
//     (src,dst) pair is unique per collective — so the receiver releases
//     each delivered buffer into its own arena (ReleaseAll) once decoded,
//     and a buffer cannot be recycled before its lagging receiver consumed
//     it: release happens on the consuming side. A device gets back as
//     many buffers per collective as it gave away, but not of the same
//     sizes: what its peers send it differs from what it sends them, so
//     some of its size classes fill up (to arenaMaxFreeBufs, dropping the
//     rest) while others stay empty and GetBuf allocates.
//   - Gather / Scatter / Broadcast payloads are NEVER pooled: Broadcast
//     hands the same slice to every receiver, and the root leaves the
//     collective before its receivers have read it, so those paths
//     keep plain allocations (they are rare — assignment epochs and
//     evaluation sidebands).
//   - Matrix scratch from GetMat is DIRTY: the caller must overwrite every
//     element it reads. The conformance suite primes arenas with poisoned
//     buffers to prove codecs honor this.
//
// All methods are nil-receiver safe and degrade to plain allocation, so
// code paths without an env (fuzzers, direct helpers) pass nil.
type Arena struct {
	free     [arenaClasses][][]byte
	mats     []*tensor.Matrix
	payloads [][]byte
	ranges   []quant.RowRange
}

const (
	arenaMinBits = 6  // smallest pooled class: 64 B
	arenaMaxBits = 26 // largest pooled class: 64 MiB
	arenaClasses = arenaMaxBits - arenaMinBits + 1

	// Per-class local freelist bounds; beyond these (and outside the size
	// classes) released buffers are dropped.
	arenaMaxFreeBufs = 64
	arenaMaxFreeMats = 32
)

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// pooledArenas recycles whole arenas — freelists, matrix scratch and
// payload containers intact — between runs in the same process. It is a
// sync.Pool, so the garbage collector drops an arena that waits in it
// across two collections: a run that starts after them starts cold.
var pooledArenas sync.Pool

// NewPooledArena returns an arena recycled from a finished run (warm
// freelists) or an empty one. Pair with Recycle.
func NewPooledArena() *Arena {
	if a, _ := pooledArenas.Get().(*Arena); a != nil {
		return a
	}
	return NewArena()
}

// Recycle hands the arena — with everything it holds — to the process-wide
// pool for a later NewPooledArena. The caller must not touch it afterwards,
// and must not recycle an arena whose buffers are still in flight (at the
// end of a run every delivered payload has been released by its consumer,
// so a worker's deferred Recycle is safe).
func (a *Arena) Recycle() {
	if a != nil {
		pooledArenas.Put(a)
	}
}

// arenaClassFor returns the smallest class whose buffers hold n bytes, or
// -1 if n exceeds the largest class.
func arenaClassFor(n int) int {
	if n <= 1<<arenaMinBits {
		return 0
	}
	c := bits.Len(uint(n-1)) - arenaMinBits
	if c >= arenaClasses {
		return -1
	}
	return c
}

// GetBuf returns a length-0 buffer with capacity ≥ n. Contents beyond the
// length are arbitrary — append-style encoders overwrite every byte they
// claim.
func (a *Arena) GetBuf(n int) []byte {
	c := arenaClassFor(n)
	if c < 0 {
		return make([]byte, 0, n)
	}
	if a != nil {
		if l := len(a.free[c]); l > 0 {
			b := a.free[c][l-1]
			a.free[c] = a.free[c][:l-1]
			return b
		}
	}
	return make([]byte, 0, 1<<(uint(c)+arenaMinBits))
}

// PutBuf releases a buffer for reuse. Buffers smaller than the minimum
// class are dropped, as is one whose class freelist is full.
func (a *Arena) PutBuf(b []byte) {
	if a == nil || cap(b) < 1<<arenaMinBits {
		return
	}
	// Floor class: the buffer must satisfy any GetBuf of its class size.
	c := bits.Len(uint(cap(b))) - 1 - arenaMinBits
	if c >= arenaClasses {
		c = arenaClasses - 1
	}
	if len(a.free[c]) < arenaMaxFreeBufs {
		a.free[c] = append(a.free[c], b[:0])
	}
}

// ReleaseAll returns every non-nil buffer in bufs to the arena and nils
// the entries. Use it on the container a RingAll2All/RawAll2All delivery
// returned, after decoding: the caller is the sole consumer of those
// buffers.
func (a *Arena) ReleaseAll(bufs [][]byte) {
	if a == nil {
		return
	}
	for i, b := range bufs {
		if b != nil {
			a.PutBuf(b)
			bufs[i] = nil
		}
	}
}

// GetMat returns a rows×cols matrix whose contents are ARBITRARY (possibly
// stale data from a previous user). The caller must overwrite every
// element it reads. Falls back to a fresh (zeroed) matrix on a pool miss.
func (a *Arena) GetMat(rows, cols int) *tensor.Matrix {
	need := rows * cols
	if a != nil {
		for i := len(a.mats) - 1; i >= 0; i-- {
			m := a.mats[i]
			if cap(m.Data) >= need {
				a.mats = append(a.mats[:i], a.mats[i+1:]...)
				m.Rows, m.Cols = rows, cols
				m.Data = m.Data[:need]
				return m
			}
		}
	}
	return tensor.New(rows, cols)
}

// PutMat releases a matrix into the arena. The matrix must not be
// referenced by anyone else (never pool a matrix that was retained as
// codec state or returned to a caller).
func (a *Arena) PutMat(m *tensor.Matrix) {
	if a == nil || m == nil || cap(m.Data) == 0 {
		return
	}
	if len(a.mats) < arenaMaxFreeMats {
		a.mats = append(a.mats, m)
	}
}

// Payloads returns a length-n all-nil container for staging per-peer
// payloads. The container itself is reused across calls on the same
// arena, which is safe because no transport retains it: a collective
// copies the refs into its post before it returns.
func (a *Arena) Payloads(n int) [][]byte {
	if a == nil {
		return make([][]byte, n)
	}
	if cap(a.payloads) < n {
		a.payloads = make([][]byte, n)
	}
	p := a.payloads[:n]
	for i := range p {
		p[i] = nil
	}
	return p
}

// RowRanges returns a length-n container for per-row value ranges with
// ARBITRARY contents; the caller fills the entries it reads. Like Payloads
// it is one slice reused across calls on the same arena, so at most one is
// live at a time (an exchange scans its rows, encodes, and is done).
func (a *Arena) RowRanges(n int) []quant.RowRange {
	if a == nil {
		return make([]quant.RowRange, n)
	}
	if cap(a.ranges) < n {
		a.ranges = make([]quant.RowRange, n)
	}
	return a.ranges[:n]
}

// dirtyArena returns an arena whose freelists are primed with poisoned
// memory: byte buffers full of 0xA5, matrices and row ranges full of NaN. The
// conformance exchange check and the decode fuzzer run codecs against it,
// so a decoder or encoder that reads pooled memory it did not overwrite
// produces loudly wrong values instead of silently correct zeroes.
func dirtyArena(dim int) *Arena {
	a := NewArena()
	var bufs [][]byte
	for n := 1 << arenaMinBits; n <= 1<<16; n <<= 2 {
		b := a.GetBuf(n)[:n]
		for i := range b {
			b[i] = 0xA5
		}
		bufs = append(bufs, b)
	}
	for _, b := range bufs {
		a.PutBuf(b)
	}
	if dim < 1 {
		dim = 1
	}
	nan := float32(math.NaN())
	var mats []*tensor.Matrix
	for _, rows := range []int{1, 3, 8, 64} {
		m := a.GetMat(rows, dim)
		for i := range m.Data {
			m.Data[i] = nan
		}
		mats = append(mats, m)
	}
	for _, m := range mats {
		a.PutMat(m)
	}
	for i := range a.RowRanges(1 << 10) {
		a.ranges[i] = quant.RowRange{Min: nan, Max: nan}
	}
	return a
}

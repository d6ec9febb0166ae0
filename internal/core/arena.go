package core

import (
	"math/bits"
	"sync"
)

// Arena is a Deployment's payload pool: size-classed freelists of the byte
// buffers that halo messages travel in. Messages are the one scratch that
// crosses devices, so one pool serves every device and every Run of its
// Deployment, concurrent Runs included (Deployment.payloadPool); a mutex
// guards the freelists. Everything else a device reuses belongs to its
// owner: the exchange's containers to its ExchangeEnv, a codec's blocks to
// the codec.
//
// Ownership rules (documented in README "Performance"):
//
//   - A sender encodes each payload into a buffer from the pool (GetBuf)
//     and hands ownership to the transport; it must never touch or release
//     the buffer afterwards.
//   - RingAll2All / RawAll2All deliveries have exactly one consumer — the
//     (src,dst) pair is unique per collective — so the receiver releases
//     each delivered buffer into the pool (ReleaseAll) once decoded: a
//     buffer cannot be reused before its lagging receiver has consumed it.
//   - Gather / Scatter / Broadcast payloads are NEVER pooled: Broadcast
//     hands the same slice to every receiver, and the root leaves the
//     collective before its receivers have read it, so those paths keep
//     plain allocations (they are rare — assignment epochs and evaluation
//     sidebands).
//
// Every buffer returns to the class it was drawn from, so once a pool has
// seen the most buffers of each class that are out at one time (two
// consecutive exchanges' payloads), GetBuf stops missing.
//
// All methods are nil-receiver safe and degrade to plain allocation, so
// code paths without a pool (fuzzers, direct helpers) pass nil.
type Arena struct {
	mu      sync.Mutex
	free    [arenaClasses][][]byte
	maxFree int // per-class freelist bound
	misses  int // GetBufs of a class whose freelist was empty
}

const (
	arenaMinBits = 6  // smallest pooled class: 64 B
	arenaMaxBits = 26 // largest pooled class: 64 MiB
	arenaClasses = arenaMaxBits - arenaMinBits + 1

	// arenaMaxFreeBufs is the per-class freelist bound per device; beyond
	// it (and outside the size classes) released buffers are dropped.
	arenaMaxFreeBufs = 64
)

// NewArena returns an empty pool for parts devices.
func NewArena(parts int) *Arena { return &Arena{maxFree: arenaMaxFreeBufs * parts} }

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
		a.mu.Lock()
		l := len(a.free[c])
		if l > 0 {
			b := a.free[c][l-1]
			a.free[c] = a.free[c][:l-1]
			a.mu.Unlock()
			return b
		}
		a.misses++
		a.mu.Unlock()
	}
	return make([]byte, 0, 1<<(uint(c)+arenaMinBits))
}

// PutBuf releases a buffer for reuse.
func (a *Arena) PutBuf(b []byte) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.put(b)
	a.mu.Unlock()
}

// ReleaseAll returns every non-nil buffer in bufs to the pool and nils
// the entries. Use it on the container a RingAll2All/RawAll2All delivery
// returned, after decoding: the caller is the sole consumer of those
// buffers.
func (a *Arena) ReleaseAll(bufs [][]byte) {
	if a == nil {
		return
	}
	a.mu.Lock()
	for i, b := range bufs {
		if b != nil {
			a.put(b)
			bufs[i] = nil
		}
	}
	a.mu.Unlock()
}

// put files b under its class; a.mu is held. Buffers smaller than the
// minimum class are dropped, as is one whose class freelist is full.
func (a *Arena) put(b []byte) {
	if cap(b) < 1<<arenaMinBits {
		return
	}
	// Floor class: the buffer must satisfy any GetBuf of its class size.
	c := min(bits.Len(uint(cap(b)))-1-arenaMinBits, arenaClasses-1)
	if len(a.free[c]) < a.maxFree {
		a.free[c] = append(a.free[c], b[:0])
	}
}

package core

import (
	"fmt"
	"math"

	"repro/internal/partition"
	"repro/internal/tensor"
	"repro/internal/timing"
)

// SANCUS (Peng et al., 2022) reimplementation: instead of all2all halo
// exchange, each device *broadcasts* its boundary-node embeddings to every
// other device, sequentially — the pattern the paper identifies as less
// efficient than ring all2all (§5.1). Staleness-awareness: a device skips
// its broadcast while its boundary embeddings have drifted less than a
// threshold since the last broadcast (receivers keep using the cached
// historical embeddings), re-broadcasting at the latest every
// SancusMaxStale epochs. Historical embeddings are treated as constants in
// the backward pass, so no embedding gradients cross devices.

// sancusTopology is the static broadcast layout. Every device builds the
// same one from the run's local graphs.
type sancusTopology struct {
	// boundary[p] lists p's boundary rows (union of every SendTo set),
	// sorted ascending — the broadcast payload row order.
	boundary [][]int32
	// recvMap[p][d][j] is the position within boundary[p] of the row that
	// fills device d's halo slot RecvFrom[p][j].
	recvMap [][][]int32
}

func buildSancusTopology(lgs []*partition.LocalGraph) *sancusTopology {
	n := len(lgs)
	t := &sancusTopology{
		boundary: make([][]int32, n),
		recvMap:  make([][][]int32, n),
	}
	for p := 0; p < n; p++ {
		lg := lgs[p]
		rows := unionRows(lg.NumLocal, lg.SendTo)
		// pos[r] is local row r's position in the boundary (SendTo entries
		// are local row indices).
		pos := make([]int32, lg.NumLocal)
		for i, r := range rows {
			pos[r] = int32(i)
		}
		t.boundary[p] = rows
		t.recvMap[p] = make([][]int32, n)
		for d := 0; d < n; d++ {
			if d == p {
				continue
			}
			m := make([]int32, len(lg.SendTo[d]))
			for j, r := range lg.SendTo[d] {
				m[j] = pos[r]
			}
			t.recvMap[p][d] = m
		}
	}
	return t
}

// exchange fills xFull's halo rows from the per-layer historical cache,
// refreshing it with any broadcasts that happened this epoch.
//
// When overlap is set the broadcasts run split-phase: all n are started
// before any is consumed, layer l's central-graph forward compute is
// charged inside the open window, and each Wait charges from the common
// start (timing.FinishDeferred). So the n roots' broadcasts are charged as
// concurrent — the slowest one's wire time, not the sum the blocking
// schedule charges — and what a Wait finds already elapsed lands under
// timing.Overlap: the central compute (the paper's computation–
// communication parallelization) and the wire time of the broadcasts
// waited on before it. Payload construction, routing and decode order are identical either
// way, so loss curves do not depend on the schedule; the caller charges
// the remaining Marginal (overlap) or Total (blocking) compute.
func (c *sancusCodec) exchange(env *ExchangeEnv, epoch, l int, h, xFull *tensor.Matrix, overlap bool) error {
	lg := env.Graph
	n := env.Dev.Size()
	rank := env.Dev.Rank()
	if c.cache[l] == nil || c.cache[l].Cols != xFull.Cols {
		c.cache[l] = tensor.New(lg.NumHalo, xFull.Cols)
	}
	if c.next[l] == nil || c.next[l].Cols != h.Cols {
		c.next[l] = tensor.New(len(c.topo.boundary[rank]), h.Cols)
	}
	myBoundary := c.next[l]
	gatherRowsInto(myBoundary, h, c.topo.boundary[rank])

	broadcast := true
	if epoch > 0 && c.last[l] != nil && c.last[l].SameShape(myBoundary) {
		drift := subFrobNorm(myBoundary, c.last[l])
		norm := myBoundary.FrobeniusNorm() + 1e-12
		broadcast = drift/norm >= env.Cfg.SancusDrift || c.age[l]+1 >= env.Cfg.SancusMaxStale
	}

	payloadFor := func(src int) []byte {
		if src == rank && broadcast && len(c.topo.boundary[rank]) > 0 {
			// Broadcast payloads are shared by every receiver and read
			// after the root has moved on, so they are never pooled.
			return appendF32s(make([]byte, 0, 4*len(myBoundary.Data)), myBoundary.Data)
		}
		return nil
	}
	var pending []PendingCollective
	if overlap {
		for src := 0; src < n; src++ {
			pending = append(pending, env.Dev.StartBroadcast(src, payloadFor(src)))
		}
		env.Dev.Clock().Advance(timing.Comp, env.ForwardCosts(l).Central)
	}
	for src := 0; src < n; src++ {
		var got []byte
		if overlap {
			got = pending[src].Wait()
		} else {
			got = env.Dev.BroadcastBytes(src, payloadFor(src))
		}
		if src == rank || len(got) == 0 || len(lg.RecvFrom[src]) == 0 {
			continue
		}
		// got is src's whole boundary block; only the rows this device
		// needs are decoded, straight into the cache.
		cols := xFull.Cols
		if want := 4 * len(c.topo.boundary[src]) * cols; len(got) != want {
			return fmt.Errorf("sancus: rank %d from %d: boundary payload is %d bytes, want %d", rank, src, len(got), want)
		}
		for j, slot := range lg.RecvFrom[src] {
			k := int(c.topo.recvMap[src][rank][j])
			readF32s(c.cache[l].Row(int(slot)), got[4*k*cols:], false)
		}
	}
	if broadcast {
		// The block just sent is the new reference; the old one is the
		// next call's scratch.
		c.last[l], c.next[l] = myBoundary, c.last[l]
		c.age[l] = 0
	} else {
		c.age[l]++
	}
	for i := 0; i < lg.NumHalo; i++ {
		copy(xFull.Row(lg.NumLocal+i), c.cache[l].Row(i))
	}
	return nil
}

// subFrobNorm returns ‖a−b‖_F without materializing the difference,
// computing float32 element differences exactly as tensor.Sub would.
func subFrobNorm(a, b *tensor.Matrix) float64 {
	var s float64
	for i, v := range a.Data {
		d := float64(v - b.Data[i])
		s += d * d
	}
	return math.Sqrt(s)
}

package main

import (
	"runtime"
	"sync"
	"time"
)

// The sandbox this benchmark runs in shares its physical cores with
// other tenants: the same code runs up to 1.9× slower for seconds or
// minutes at a time, which no statistic over one run can remove. So the
// end-to-end pass brackets every block of work with a fixed reference
// kernel owned by the benchmark — multiply-adds streaming over
// cache-resident float32 arrays on every core, the access pattern of the
// training kernels — and scales the block's host times by how much slower
// than nominal the reference ran just before and just after it. Host
// end-to-end metrics therefore read as "time on a machine where the
// reference kernel takes referenceNominalMS", and a change to the
// repository's code moves them while a busy neighbour mostly does not.
//
// A workload does not slow as much as the reference does: the part of its
// time spent waiting (on sockets, on the slowest device, on the
// scheduler) does not stretch with the cores. Each workload therefore
// declares its pace share — the share of its host time that scales with
// the reference — and a block that ran at reference slowness f is scaled
// by 1 / (1 + share·(f − 1)). The shares were fitted on the probe machine
// from runs that spanned a slow and a fast phase (README "Steady host
// metrics").

// referenceNominalMS is what the reference kernel takes on the probe
// machine (2 vCPUs, Xeon 2.1 GHz) when it is left alone.
const referenceNominalMS = 80.0

const (
	referenceElems = 1 << 16
	referenceReps  = 1500
)

var referenceBufs [][2][]float32

// referenceMS runs the reference kernel once and returns its wall time.
func referenceMS() float64 {
	cores := runtime.NumCPU()
	for len(referenceBufs) < cores {
		referenceBufs = append(referenceBufs, [2][]float32{make([]float32, referenceElems), make([]float32, referenceElems)})
	}
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < cores; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, b := referenceBufs[g][0], referenceBufs[g][1]
			var s float32
			for r := 0; r < referenceReps; r++ {
				for i := range a {
					a[i] += b[i]*1.0001 + s
				}
				s = a[5] * 1e-9
			}
		}()
	}
	wg.Wait()
	return ms(time.Since(t0))
}

// pace tracks the machine's speed across consecutive blocks of work: each
// call to slowness runs the reference kernel and returns how much slower
// than nominal the machine ran since the previous call (the mean of the
// reference times at the block's two ends over the nominal time).
type pace struct {
	last float64
	all  []float64
}

// startPace warms the reference kernel up and takes the first reading.
func startPace() *pace {
	referenceMS()
	p := &pace{}
	p.slowness()
	return p
}

func (p *pace) slowness() float64 {
	now := referenceMS()
	f := (p.last + now) / 2 / referenceNominalMS
	p.last = now
	p.all = append(p.all, now)
	return f
}

// stretch is how much longer than at nominal machine speed a block took
// whose share of reference-bound time is share, at reference slowness f.
// Host times are divided by it.
func stretch(share, f float64) float64 { return 1 + share*(f-1) }

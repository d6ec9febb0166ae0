// Multi-process wire backend demo: the same AdaQP training run on the
// in-process transport and twice on proc-sharded, where every codec
// payload is serialized into a length-prefixed frame and routed through
// worker OS processes, each born holding one end of a Unix-domain socket
// pair with the parent, so nothing is created on the filesystem. The first
// proc-sharded run spawns the worker fleet; it hands the fleet back when it
// ends healthy, and the second run takes it warm instead of spawning one.
// The loss curves must be bit-identical — the wire changes where bytes
// travel, never what they decode to, and a reused fleet carries nothing
// over — so the program self-checks parity of both runs and exits non-zero
// on any divergence.
//
//	go run ./examples/multiproc
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/wire"
	"repro/pkg/adaqp"
)

func main() {
	// This binary re-executes itself as the proc-sharded worker fleet;
	// worker processes never return from MaybeWorker.
	wire.MaybeWorker()

	ds := adaqp.MustLoadDataset("tiny", 1)
	fmt.Printf("dataset: %v\n\n", ds)

	eng, err := adaqp.New(ds,
		adaqp.WithParts(4),
		adaqp.WithMethod(adaqp.AdaQP),
		adaqp.WithHidden(32),
		adaqp.WithEpochs(20),
		adaqp.WithEvalEvery(5))
	if err != nil {
		log.Fatal(err)
	}

	ref, err := eng.Run()
	if err != nil {
		log.Fatal(err)
	}
	procSpec := adaqp.WithTransport(adaqp.TransportSpec{
		Name:    adaqp.TransportProcSharded,
		Workers: 2,
	})
	type row struct {
		label string
		res   *adaqp.Result
		host  time.Duration // Run's host time; 0 for the reference
	}
	rows := []row{{label: "inprocess", res: ref}}
	for _, label := range []string{"proc (cold)", "proc (warm)"} {
		t0 := time.Now()
		res, err := eng.Run(procSpec)
		if err != nil {
			log.Fatal(err)
		}
		rows = append(rows, row{label, res, time.Since(t0)})
	}

	fmt.Printf("%-14s %12s %14s %16s %10s\n", "transport", "final loss", "test acc", "payload bytes", "host run")
	for _, row := range rows {
		var moved int64
		for _, r := range row.res.BytesMoved {
			for _, v := range r {
				moved += v
			}
		}
		host := "-"
		if row.host > 0 {
			host = row.host.Round(time.Millisecond).String()
		}
		fmt.Printf("%-14s %12.6f %14.4f %16d %10s\n",
			row.label, row.res.Epochs[len(row.res.Epochs)-1].Loss, row.res.FinalTest, moved, host)
	}

	mismatch := false
	for _, row := range rows[1:] {
		proc := row.res
		for i := range ref.Epochs {
			if ref.Epochs[i].Loss != proc.Epochs[i].Loss {
				fmt.Fprintf(os.Stderr, "PARITY FAILURE (%s): epoch %d loss %.9f (inprocess) vs %.9f\n",
					row.label, i, ref.Epochs[i].Loss, proc.Epochs[i].Loss)
				mismatch = true
			}
		}
		if ref.FinalTest != proc.FinalTest {
			fmt.Fprintf(os.Stderr, "PARITY FAILURE (%s): final test %.6f vs %.6f\n", row.label, ref.FinalTest, proc.FinalTest)
			mismatch = true
		}
	}
	if mismatch {
		os.Exit(1)
	}
	fmt.Println("\nparity: all epoch losses and the final test accuracy are bit-identical across transports, on a cold fleet and a warm one")
}

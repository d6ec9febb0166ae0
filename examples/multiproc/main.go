// Multi-process wire backend demo: the same AdaQP training run on the
// in-process transport and on proc-sharded, where every codec
// payload is serialized into a length-prefixed frame and routed through
// worker OS processes, each born holding one end of a Unix-domain socket
// pair with the parent, so nothing is created on the filesystem. The loss
// curves must be bit-identical — the wire changes where bytes travel,
// never what they decode to — so the program self-checks parity and exits
// non-zero on any divergence.
//
//	go run ./examples/multiproc
package main

import (
	"fmt"
	"log"
	"os"

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
	proc, err := eng.Run(adaqp.WithTransport(adaqp.TransportSpec{
		Name:    adaqp.TransportProcSharded,
		Workers: 2,
	}))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-14s %12s %14s %16s\n", "transport", "final loss", "test acc", "payload bytes")
	for _, row := range []struct {
		label string
		res   *adaqp.Result
	}{
		{"inprocess", ref},
		{"proc-sharded", proc},
	} {
		var moved int64
		for _, r := range row.res.BytesMoved {
			for _, v := range r {
				moved += v
			}
		}
		fmt.Printf("%-14s %12.6f %14.4f %16d\n",
			row.label, row.res.Epochs[len(row.res.Epochs)-1].Loss, row.res.FinalTest, moved)
	}

	mismatch := false
	for i := range ref.Epochs {
		if ref.Epochs[i].Loss != proc.Epochs[i].Loss {
			fmt.Fprintf(os.Stderr, "PARITY FAILURE: epoch %d loss %.9f (inprocess) vs %.9f (proc-sharded)\n",
				i, ref.Epochs[i].Loss, proc.Epochs[i].Loss)
			mismatch = true
		}
	}
	if ref.FinalTest != proc.FinalTest {
		fmt.Fprintf(os.Stderr, "PARITY FAILURE: final test %.6f vs %.6f\n", ref.FinalTest, proc.FinalTest)
		mismatch = true
	}
	if mismatch {
		os.Exit(1)
	}
	fmt.Println("\nparity: all epoch losses and the final test accuracy are bit-identical across transports")
}

// Scaling study: throughput of Vanilla vs AdaQP as the same graph is spread
// over 2 → 24 devices, the sweep `cmd/paper` does not print (its Table 7 is
// the 24-device point alone). More partitions mean a higher remote-neighbor
// ratio (Table 1), so communication grows while per-device computation
// shrinks — the regime where message quantization pays off, until fixed
// per-message overheads dominate at very high device counts.
//
//	go run ./examples/scaling
package main

import (
	"fmt"
	"log"

	"repro/pkg/adaqp"
)

func main() {
	ds := adaqp.MustLoadDataset("products-sim", 0.5)
	fmt.Printf("dataset: %v\n\n", ds)
	fmt.Printf("%-8s %14s %14s %10s %18s\n", "devices", "vanilla ep/s", "adaqp ep/s", "speedup", "remote-nbr ratio")

	for _, parts := range []int{2, 4, 8, 16, 24} {
		eng, err := adaqp.New(ds,
			adaqp.WithParts(parts),
			adaqp.WithModel(adaqp.GraphSAGE),
			adaqp.WithHidden(64),
			adaqp.WithEpochs(10),
			adaqp.WithEvalEvery(0),
			adaqp.WithReassignPeriod(11)) // bootstrap assignment only
		if err != nil {
			log.Fatal(err)
		}
		tp := map[string]float64{}
		for _, codec := range []string{adaqp.CodecFP32, adaqp.CodecAdaptive} {
			res, err := eng.Run(adaqp.WithCodec(adaqp.CodecSpec{Name: codec}))
			if err != nil {
				log.Fatal(err)
			}
			tp[codec] = res.Throughput()
		}
		van, ada := tp[adaqp.CodecFP32], tp[adaqp.CodecAdaptive]
		fmt.Printf("%-8d %14.3f %14.3f %9.2fx %17.1f%%\n",
			parts, van, ada, ada/van,
			100*eng.Deployment().Stats.RemoteNeighborAvg)
	}
}

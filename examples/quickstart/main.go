// Quickstart: train a 3-layer GCN on a small synthetic graph over 4
// simulated devices, first with vanilla synchronous full-graph training and
// then with AdaQP, and compare accuracy and simulated training time — all
// through the public pkg/adaqp Engine API. It checks the paper's claim in
// small and exits non-zero when it does not hold: AdaQP trains faster than
// Vanilla, and its final test accuracy is within one point of Vanilla's at
// the same seed.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/pkg/adaqp"
)

func main() {
	// 1. Load a dataset. The registry generates deterministic synthetic
	// stand-ins for the paper's graphs; "tiny" is a 400-node example.
	ds := adaqp.MustLoadDataset("tiny", 1)
	fmt.Printf("dataset: %v\n", ds)

	// The toy graph ships kilobytes where the paper's ship megabytes, so
	// scale the cost model down with it (as internal/experiments does for
	// the -sim datasets); otherwise fixed per-message overheads hide the
	// bandwidth effects quantization targets.
	model := adaqp.DefaultCostModel()
	model.Bandwidth /= 500
	model.DenseFLOPS /= 500
	model.SparseFLOPS /= 500
	model.QuantRate /= 500
	model.Latency = 1e-4

	// 2. Build an Engine: it partitions the graph across the devices
	// (self-loops + symmetric normalization for GCN, halo index sets, the
	// central/marginal decomposition) and caches that deployment so every
	// session below trains on the identical partitioning.
	eng, err := adaqp.New(ds,
		adaqp.WithParts(4),
		adaqp.WithHidden(64),
		adaqp.WithEpochs(60),
		adaqp.WithEvalEvery(10),
		adaqp.WithReassignPeriod(15),
		adaqp.WithCostModel(model))
	if err != nil {
		log.Fatal(err)
	}
	dep := eng.Deployment()
	fmt.Printf("partitions: %d, edge cut: %.1f%%, remote-neighbor ratio: %.1f%%\n\n",
		dep.Assignment.Parts,
		100*float64(dep.Stats.EdgeCut)/float64(dep.Stats.TotalEdges),
		100*dep.Stats.RemoteNeighborAvg)

	// 3. Train with both systems on the same partitioning; a system is its
	// message codec: fp32 ring all2all is Vanilla, adaptively quantized
	// messages with computation–communication overlap are AdaQP.
	var runs []*adaqp.Result
	for _, codec := range []string{adaqp.CodecFP32, adaqp.CodecAdaptive} {
		res, err := eng.Run(adaqp.WithCodec(adaqp.CodecSpec{Name: codec}))
		if err != nil {
			log.Fatal(err)
		}
		per := res.PerEpoch()
		fmt.Printf("codec=%-8s test acc %.3f | %.2f epoch/s | per-epoch comm %.4fs comp %.4fs quant %.4fs\n",
			res.Codec, res.FinalTest, res.Throughput(), per.Comm+per.Idle, per.Comp, per.Quant)
		runs = append(runs, res)
	}

	// 4. The claim, checked: faster at accuracy parity.
	van, ada := runs[0], runs[1]
	if ada.Throughput() <= van.Throughput() {
		log.Fatalf("AdaQP trains at %.2f epoch/s, not faster than Vanilla's %.2f", ada.Throughput(), van.Throughput())
	}
	if d := 100 * (ada.FinalTest - van.FinalTest); d < -1 || d > 1 {
		log.Fatalf("AdaQP's test accuracy %.3f is %+.2f points from Vanilla's %.3f, not within 1", ada.FinalTest, d, van.FinalTest)
	}
}

// Straggler demo on the synchronous path (the paper's §2.2): one device's
// outgoing links run 16× slower, and because every ring all2all round
// waits for its slowest link, that one link paces every round on every
// device. Vanilla and AdaQP each train with and without the slow link,
// and both wall-clocks rise. Link costs charge simulated time only, so
// Vanilla's loss curve is bit-identical with and without it. AdaQP's
// bit-width assigner does see it — Eqn. 10 charges the slowest pair — and
// ships fewer bytes over the slow links, trading their precision for time.
//
//	go run ./examples/stragglers
package main

import (
	"fmt"
	"log"

	"repro/pkg/adaqp"
)

const (
	parts    = 4
	slowRank = 1  // the device whose outgoing links are slow
	slowdown = 16 // how much slower they are
)

// commodityModel calibrates a cluster where link bandwidth bites: slower
// devices on 1.6 Gbps links with a low per-message overhead, so wire time
// is bandwidth-dominated. The default V100/100 Gbps model would hide a slow
// link behind its 1 ms per-message software latency on a dataset this
// small.
func commodityModel() *adaqp.CostModel {
	m := adaqp.DefaultCostModel()
	m.DenseFLOPS = 2e9
	m.SparseFLOPS = 2e8
	m.Bandwidth = 2e8
	m.Latency = 1e-5
	return m
}

// slowLinkModel is commodityModel with slowRank's outgoing links slowdown×
// slower — what a FaultSpec link straggler does to its device, with the
// rank fixed here so the example can name the slow links.
func slowLinkModel() *adaqp.CostModel {
	m := commodityModel()
	theta := make([][]float64, parts)
	for src := range theta {
		theta[src] = make([]float64, parts)
		for dst := range theta[src] {
			theta[src][dst] = m.Theta(src, dst)
			if src == slowRank {
				theta[src][dst] *= slowdown
			}
		}
	}
	m.PairTheta = theta
	return m
}

// shipped is what the slow device sent over its outgoing links in a run.
func shipped(r *adaqp.Result) int64 {
	var n int64
	for _, b := range r.BytesMoved[slowRank] {
		n += b
	}
	return n
}

// train runs codec on ds under model.
func train(ds *adaqp.Dataset, codec string, model *adaqp.CostModel) *adaqp.Result {
	eng, err := adaqp.New(ds,
		adaqp.WithParts(parts),
		adaqp.WithCodec(adaqp.CodecSpec{Name: codec}),
		adaqp.WithHidden(32),
		adaqp.WithEpochs(30),
		adaqp.WithEvalEvery(0),
		adaqp.WithCostModel(model),
	)
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		log.Fatal(err)
	}
	return res
}

func main() {
	ds := adaqp.MustLoadDataset("tiny", 1)
	fmt.Printf("dataset: %v; device %d's outgoing links %dx slower in the slow runs\n", ds, slowRank, slowdown)
	fmt.Printf("(link MB: bytes device %d ships; loss: the last epoch's)\n\n", slowRank)
	fmt.Printf("%-8s %10s %10s %7s %14s %14s %12s %12s\n", "codec", "clean (s)", "slow (s)", "ratio",
		"link MB clean", "link MB slow", "loss clean", "loss slow")

	runs := map[string][2]*adaqp.Result{}
	for _, codec := range []string{adaqp.CodecFP32, adaqp.CodecAdaptive} {
		clean, slow := train(ds, codec, commodityModel()), train(ds, codec, slowLinkModel())
		runs[codec] = [2]*adaqp.Result{clean, slow}
		last := len(clean.Epochs) - 1
		fmt.Printf("%-8v %10.4f %10.4f %6.2fx %14.3f %14.3f %12.6f %12.6f\n", codec,
			clean.WallClock, slow.WallClock, float64(slow.WallClock)/float64(clean.WallClock),
			float64(shipped(clean))/1e6, float64(shipped(slow))/1e6, clean.Epochs[last].Loss, slow.Epochs[last].Loss)

		if slow.WallClock <= clean.WallClock {
			log.Fatalf("%v: wall-clock %.4fs with the slow link, not above %.4fs without", codec, slow.WallClock, clean.WallClock)
		}
		// The slow link paces the synchronized rounds: every device waits
		// for it, not only the one that owns it.
		cleanPhases, slowPhases := clean.Phases(), slow.Phases()
		for d := range slowPhases {
			if slowPhases[d].Comm <= cleanPhases[d].Comm {
				log.Fatalf("%v: device %d's Comm %.4fs with the slow link, not above %.4fs without",
					codec, d, slowPhases[d].Comm, cleanPhases[d].Comm)
			}
		}
	}

	// Vanilla ships fp32 messages whatever the links cost: the same bytes
	// and, since link costs charge simulated time only, the same loss curve.
	van := runs[adaqp.CodecFP32]
	for i := range van[0].Epochs {
		if van[0].Epochs[i].Loss != van[1].Epochs[i].Loss {
			log.Fatalf("Vanilla epoch %d: loss %v with the slow link, %v without: link costs must never touch numerics",
				i, van[1].Epochs[i].Loss, van[0].Epochs[i].Loss)
		}
	}
	if shipped(van[0]) != shipped(van[1]) {
		log.Fatalf("Vanilla shipped %d bytes over the slow links, %d without the slowdown", shipped(van[1]), shipped(van[0]))
	}
	// AdaQP's assigner sees the slow links in Eqn. 10 and ships fewer bytes
	// over them, so its widths — and therefore its loss curve — differ.
	ada := runs[adaqp.CodecAdaptive]
	if shipped(ada[1]) >= shipped(ada[0]) {
		log.Fatalf("AdaQP shipped %d bytes over the slow links, not fewer than the %d it ships without the slowdown",
			shipped(ada[1]), shipped(ada[0]))
	}

	fmt.Printf("\nper-device phases of AdaQP with the slow link:\n")
	for d, p := range ada[1].Phases() {
		fmt.Printf("  dev %d: comp=%.4fs comm=%.4fs quant=%.4fs idle=%.4fs assign=%.4fs overlap=%.4fs\n",
			d, p.Comp, p.Comm, p.Quant, p.Idle, p.Assign, p.Overlap)
	}
	fmt.Printf("\nthe slow link paces every ring round, so every device's Comm rises under\n")
	fmt.Printf("both systems. Vanilla's loss curve is bit-identical; AdaQP's assigner\n")
	fmt.Printf("answers by shipping %.1f%% fewer bytes over the slow links.\n",
		100*(1-float64(shipped(ada[1]))/float64(shipped(ada[0]))))
}

// Command adaqp trains one GNN with a chosen message codec — the training
// system: fp32 is Vanilla, adaptive (the default) is AdaQP — and prints
// the convergence trace, accuracy, throughput and time breakdown.
//
// Usage:
//
//	adaqp -dataset products-sim -model gcn -codec adaptive -parts 4 -epochs 100
//	adaqp -dataset yelp-sim -model sage -codec pipegcn -parts 8
//	adaqp -dataset tiny -codec uniform -bits 8
//	adaqp -dataset tiny -codec fp32 -transport proc-sharded -workers 4
//	adaqp -dataset tiny -codec sancus -overlap
//	adaqp -dataset tiny -chaos-stragglers 1 -chaos-slow 4 -chaos-crash-epoch 20
//	adaqp -partinfo -dataset products-sim -parts 8
//
// -partinfo trains nothing: it compares the partitioners' quality
// statistics for -dataset, -scale, -parts and -model and exits.
//
// The -codec, -transport and -dataset usage strings list whatever is
// currently registered, so custom registrations show up automatically;
// naming an unregistered one exits non-zero with the registered names.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/pkg/adaqp"
)

func main() {
	// The proc-sharded transport re-executes this binary as its worker
	// processes; in that mode the process never reaches flag parsing.
	adaqp.MaybeWorker()
	var (
		dataset  = flag.String("dataset", "tiny", "dataset name: "+strings.Join(adaqp.DatasetNames(), ", "))
		scale    = flag.Float64("scale", 1, "dataset scale factor")
		model    = flag.String("model", "gcn", "gcn | sage")
		codec    = flag.String("codec", "", "message codec, the training system (default adaptive): "+strings.Join(adaqp.Codecs(), ", "))
		tport    = flag.String("transport", "", "runtime backend: "+strings.Join(adaqp.Transports(), ", "))
		workers  = flag.Int("workers", 0, "proc-sharded worker process count (0 = 2, clamped to -parts)")
		overlap  = flag.Bool("overlap", false, "sancus only: start broadcasts split-phase; the roots' broadcasts are charged as concurrent, and what that hides (compute and other broadcasts) is booked as overlap")
		parts    = flag.Int("parts", 4, "number of devices")
		epochs   = flag.Int("epochs", 100, "training epochs")
		hidden   = flag.Int("hidden", 256, "hidden dimension")
		lr       = flag.Float64("lr", 0.01, "learning rate")
		dropout  = flag.Float64("dropout", 0.5, "dropout probability")
		lambda   = flag.Float64("lambda", 0.5, "variance/time trade-off λ ∈ [0,1]")
		group    = flag.Int("group", 100, "message group size")
		period   = flag.Int("period", 50, "bit-width re-assignment period (epochs)")
		bits     = flag.Int("bits", 2, "uniform bit-width for -codec uniform (2|4|8|32)")
		seed     = flag.Uint64("seed", 1, "random seed")
		evalEach = flag.Int("eval-every", 5, "epochs between validation evaluations")
		partinfo = flag.Bool("partinfo", false, "print partition-quality statistics for -dataset, -scale, -parts and -model, then exit")

		chaosStragglers = flag.Int("chaos-stragglers", 0, "devices slowed by the fault plan (0 = no stragglers)")
		chaosSlow       = flag.Float64("chaos-slow", 0, "straggler compute slowdown factor (> 1)")
		chaosLink       = flag.Float64("chaos-link", 0, "straggler outgoing-link slowdown factor (> 1)")
		chaosFailRate   = flag.Float64("chaos-fail-rate", 0, "transient collective failure probability in [0,1)")
		chaosRetries    = flag.Int("chaos-retries", 0, "max retries per failed collective (0 = default 3)")
		chaosBackoff    = flag.Float64("chaos-backoff", 0, "initial retry backoff in simulated seconds (0 = default)")
		chaosCrash      = flag.Int("chaos-crash-epoch", 0, "0-based index (>= 1) of the epoch in which one device crashes and restarts (0 = never)")
		chaosRestart    = flag.Float64("chaos-restart", 0, "crash restart penalty in simulated seconds (0 = default)")
		chaosSeed       = flag.Uint64("chaos-seed", 0, "fault-plan seed (0 = default 1)")
	)
	flag.Parse()
	// JobSpec reads a zero in these fields as "engine default", so an
	// explicit 0 would train at the default under a header that prints 0.
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "parts", "epochs", "hidden", "lr", "group", "period", "bits", "seed":
			if v, err := strconv.ParseFloat(f.Value.String(), 64); err == nil && v == 0 {
				fatal(fmt.Errorf("-%s %s would train at the engine default; give a non-zero value", f.Name, f.Value))
			}
		}
	})
	if *partinfo {
		if err := printPartInfo(*dataset, *scale, *parts, *model); err != nil {
			fatal(err)
		}
		return
	}

	if *codec == "" {
		*codec = adaqp.CodecAdaptive
	}

	// Flags populate the same declarative JobSpec cmd/adaqpd accepts as
	// job JSON, and JobSpec.Options is the single flag/JSON → Option
	// construction path — the two front ends cannot drift.
	spec := adaqp.JobSpec{
		Dataset: *dataset, Scale: *scale,
		Model: *model, Codec: *codec, Transport: *tport,
		Workers: *workers, Overlap: *overlap,
		Parts: *parts, Epochs: *epochs, Hidden: *hidden,
		LR: *lr, Dropout: dropout, Lambda: lambda, EvalEvery: evalEach,
		GroupSize: *group, ReassignPeriod: *period,
		UniformBits: *bits, Seed: *seed,
	}
	chaos := adaqp.FaultSpec{
		Seed:       *chaosSeed,
		Stragglers: *chaosStragglers, SlowFactor: *chaosSlow, LinkFactor: *chaosLink,
		FailRate: *chaosFailRate, MaxRetries: *chaosRetries, Backoff: *chaosBackoff,
		CrashEpoch: *chaosCrash, RestartPenalty: *chaosRestart,
	}
	if chaos.Enabled() {
		spec.Chaos = &chaos
	}
	opts, err := spec.Options()
	if err != nil {
		fatal(err)
	}
	ds, err := spec.Load()
	if err != nil {
		fatal(err)
	}
	// Stream the convergence trace as epochs complete instead of
	// post-processing RunResult internals. The table, and the blank line
	// that opens it, appear only when some epoch was evaluated.
	var traced bool
	opts = append(opts, adaqp.WithEpochCallback(func(e adaqp.EpochStat) {
		if math.IsNaN(e.ValAcc) {
			return
		}
		if !traced {
			fmt.Println()
			traced = true
		}
		fmt.Printf("epoch %4d  loss %.4f  val %.4f  t=%.3fs\n", e.Epoch, e.Loss, e.ValAcc, e.SimTime)
	}))

	eng, err := adaqp.New(ds, opts...)
	if err != nil {
		fatal(err)
	}
	// Already validated by spec.Options; parsed again only for display.
	mk, _ := adaqp.ParseModelKind(*model)
	sess, err := eng.Session()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("dataset %v\nmodel %v  codec %v  parts %d  epochs %d\n",
		ds, mk, sess.Codec(), *parts, *epochs)

	res, err := sess.Run()
	if err != nil {
		fatal(err)
	}
	per := res.PerEpoch()
	fmt.Printf("\nvalidation accuracy  %.4f\n", res.FinalVal)
	fmt.Printf("test accuracy        %.4f\n", res.FinalTest)
	fmt.Printf("throughput           %.3f epoch/s (simulated)\n", res.Throughput())
	fmt.Printf("wall-clock           %.2fs (assign %s)\n", res.WallClock, ms(float64(res.AssignTime)))
	fmt.Printf("per-epoch            comm %s  comp %s  quant %s  idle %s\n",
		ms(float64(per.Comm)), ms(float64(per.Comp)), ms(float64(per.Quant)), ms(float64(per.Idle)))
	if ovl := res.OverlapSeconds(); ovl > 0 {
		fmt.Printf("overlap              %.3gs of compute and messages ran concurrently (summed over devices)\n", ovl)
	}
	if f := res.Faults; f.Any() {
		fmt.Printf("faults               stragglers %d  retries %d (%.3fs)  crashes %d (%.3fs recovery)\n",
			f.Stragglers, f.Retries, f.RetryTime, f.Crashes, f.RecoveryTime)
	}
}

// printPartInfo compares the partitioners side by side — edge cut, balance,
// remote-neighbor ratio and the central/marginal decomposition (the §2.2
// numbers) — then prints LDG's per-partition sizes.
func printPartInfo(dataset string, scale float64, parts int, model string) error {
	ds, err := adaqp.LoadDataset(dataset, scale)
	if err != nil {
		return err
	}
	mk, err := adaqp.ParseModelKind(model)
	if err != nil {
		return err
	}
	fmt.Printf("dataset %v, %d partitions\n\n", ds, parts)
	fmt.Printf("%-9s %10s %9s %10s %18s %16s\n",
		"Strategy", "EdgeCut", "Cut%", "Imbalance", "RemoteNbrRatio", "MarginalFrac")
	var ldg adaqp.PartitionStats
	for _, s := range []adaqp.Strategy{adaqp.LDG, adaqp.BlockPartition, adaqp.HashPartition} {
		eng, err := adaqp.New(ds, adaqp.WithParts(parts), adaqp.WithModel(mk), adaqp.WithPartitioner(s))
		if err != nil {
			return err
		}
		st := eng.Deployment().Stats
		if s == adaqp.LDG {
			ldg = st
		}
		fmt.Printf("%-9s %10d %8.2f%% %9.3f %17.2f%% %15.2f%%\n",
			s, st.EdgeCut, 100*float64(st.EdgeCut)/float64(st.TotalEdges),
			st.Imbalance, 100*st.RemoteNeighborAvg, 100*st.MarginalFraction)
	}
	fmt.Printf("\nper-partition (LDG):\n%-6s %8s %8s %10s\n", "part", "local", "halo", "marginal")
	for p := range ldg.LocalPerPart {
		fmt.Printf("%-6d %8d %8d %10d\n", p, ldg.LocalPerPart[p], ldg.HaloPerPart[p], ldg.MarginalPerPart[p])
	}
	return nil
}

// ms prints a simulated duration in milliseconds to three significant
// digits (at least two decimals), so a non-zero charge never prints as 0.
func ms(seconds float64) string {
	v := 1e3 * seconds
	prec := 2
	if v > 0 {
		prec = max(prec, 2-int(math.Floor(math.Log10(v))))
	}
	return fmt.Sprintf("%.*fms", prec, v)
}

// fatal prints err under one "adaqp: " prefix (the library's own errors
// already carry it) and exits 1.
func fatal(err error) {
	fmt.Fprintf(os.Stderr, "adaqp: %s\n", strings.TrimPrefix(err.Error(), "adaqp: "))
	os.Exit(1)
}

package core

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/quant"
	"repro/internal/synthetic"
	"repro/internal/tensor"
)

var updateEvalGolden = flag.Bool("update-eval-golden", false, "rewrite internal/core/testdata/eval_golden.txt")

const evalGoldenFile = "testdata/eval_golden.txt"

// TestEvalGolden pins what evaluation reports, as hex float64 bits: every
// epoch's ValAcc, FinalVal and FinalTest for every goldenVariants run ×
// {GCN, GraphSAGE} × {inprocess, proc-sharded} on tiny (accuracy) and
// tiny-multi (micro-F1), evaluating after every epoch. Each dataset × model pair shares one Deployment across
// all its runs, as experiments do. Evaluation is uncharged and draws no
// randomness, so a diff means the evaluation forward pass computes
// different numbers; regenerate with -update-eval-golden only when that is
// the intent.
func TestEvalGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("fixture generated on amd64; %s may fuse multiply-adds and round differently", runtime.GOARCH)
	}
	hex := func(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }
	var got bytes.Buffer
	for _, name := range []string{"tiny", "tiny-multi"} {
		ds := synthetic.MustLoad(name, 1)
		for _, model := range []ModelKind{GCN, GraphSAGE} {
			dep := testDeploy(ds, 3, model)
			for _, transport := range []string{TransportInprocess, TransportProcSharded} {
				for _, v := range goldenVariants {
					cfg := DefaultConfig()
					cfg.Model, cfg.Codec, cfg.UniformBits = model, v.codec, v.bits
					cfg.Transport, cfg.TransportWorkers = transport, 2
					cfg.Hidden, cfg.Epochs, cfg.EvalEvery = 16, 4, 1
					cfg.ReassignPeriod, cfg.GroupSize = 2, 10
					res, err := TrainDeployed(dep, cfg, nil)
					if err != nil {
						t.Fatalf("%s %s %v %s: %v", name, v.label, model, transport, err)
					}
					fmt.Fprintf(&got, "%s %s %v %s val=", name, v.label, model, transport)
					for i, e := range res.Epochs {
						if i > 0 {
							got.WriteByte(',')
						}
						got.WriteString(hex(e.ValAcc))
					}
					fmt.Fprintf(&got, " final-val=%s final-test=%s\n", hex(res.FinalVal), hex(res.FinalTest))
				}
			}
		}
	}

	checkGolden(t, evalGoldenFile, got.Bytes(), *updateEvalGolden, "-update-eval-golden")
}

// TestStaticDataMatchesAHaloExchange holds each device's static data to
// what a Run would compute from a full-precision halo exchange of the
// input features: agg0 equals, as bits, the SpMM over [X_local | X_halo]
// with the halo rows filled from the dataset, the shard's features are
// the dataset's local rows, and ranges0 equals a scan of every row the
// device sends at layer 0.
func TestStaticDataMatchesAHaloExchange(t *testing.T) {
	for _, name := range []string{"tiny", "tiny-multi"} {
		ds := synthetic.MustLoad(name, 1)
		for _, model := range []ModelKind{GCN, GraphSAGE} {
			dep := Deploy(ds, 3, model, partition.Hash)
			for r, lg := range dep.Locals {
				_, st := dep.static(r)
				xFull := tensor.New(lg.NumLocal+lg.NumHalo, ds.Features.Cols)
				for i, g := range lg.GlobalID {
					copy(xFull.Row(i), ds.Features.Row(int(g)))
				}
				for j, g := range lg.HaloGlobalID {
					copy(xFull.Row(lg.NumLocal+j), ds.Features.Row(int(g)))
				}
				want := tensor.New(lg.NumLocal, ds.Features.Cols)
				lg.Adj.SpMM(want, xFull)
				if !sameBits(st.agg0.Data, want.Data) {
					t.Errorf("%s %v device %d: agg0 differs from the SpMM over exchanged features", name, model, r)
				}
				if !sameBits(st.ld.x.Data, xFull.Data[:lg.NumLocal*xFull.Cols]) {
					t.Errorf("%s %v device %d: shard features differ from the dataset's rows", name, model, r)
				}
				env := dirtyEnv(&ExchangeEnv{Graph: lg})
				scanned := env.ranges(forward, 0, st.ld.x)
				for _, row := range env.sentRows(forward) {
					if st.ranges0[row] != scanned[row] {
						t.Errorf("%s %v device %d row %d: static range %v, scan %v", name, model, r, row, st.ranges0[row], scanned[row])
					}
				}
			}
		}
	}
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// TestConcurrentRunsShareOneDeployment trains two codecs at once on one
// fresh Deployment — both Runs race to build its static data and then share
// its shards, aggregates and ranges — and requires each result to equal the
// same Run executed alone on a Deployment of its own. Under -race it also
// proves that the static data is only read once built and that no codec
// writes the layer-0 input it is handed.
func TestConcurrentRunsShareOneDeployment(t *testing.T) {
	ds := synthetic.MustLoad("tiny", 1)
	for _, tc := range []struct {
		model ModelKind
		pair  [2]string
	}{
		{GCN, [2]string{CodecAdaptive, CodecSancus}},
		{GCN, [2]string{CodecUniform, CodecPipeGCN}},
		{GraphSAGE, [2]string{CodecRandom, CodecFP32}},
		{GraphSAGE, [2]string{CodecAdaptive, CodecPipeGCN}},
	} {
		pair := tc.pair
		cfgs := [2]Config{}
		var alone, together [2]*metrics.RunResult
		for i, codec := range pair {
			cfgs[i] = DefaultConfig()
			cfgs[i].Model, cfgs[i].Codec, cfgs[i].UniformBits = tc.model, codec, quant.B4
			cfgs[i].Hidden, cfgs[i].Epochs, cfgs[i].EvalEvery, cfgs[i].ReassignPeriod = 16, 4, 1, 2
			var err error
			if alone[i], err = TrainDeployed(testDeploy(ds, 3, tc.model), cfgs[i], nil); err != nil {
				t.Fatal(err)
			}
		}
		dep := testDeploy(ds, 3, tc.model)
		var wg sync.WaitGroup
		var errs [2]error
		for i := range pair {
			wg.Add(1)
			go func() {
				defer wg.Done()
				together[i], errs[i] = TrainDeployed(dep, cfgs[i], nil)
			}()
		}
		wg.Wait()
		for i, codec := range pair {
			if errs[i] != nil {
				t.Fatalf("%v %s: %v", tc.model, codec, errs[i])
			}
			if !reflect.DeepEqual(together[i], alone[i]) {
				t.Errorf("%v %s next to %s: result differs from the same run alone", tc.model, codec, pair[1-i])
			}
		}
	}
}

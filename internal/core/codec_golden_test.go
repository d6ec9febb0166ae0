package core

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/quant"
	"repro/internal/synthetic"
	"repro/internal/timing"
)

var updateCodecGolden = flag.Bool("update-codec-golden", false, "rewrite internal/core/testdata/codec_golden.txt")

const codecGoldenFile = "testdata/codec_golden.txt"

// captureClocks makes cfg's run use the in-process backend and returns a
// reader for that run's device clocks, valid once training returns (a
// clock's Now() is not part of RunResult).
func captureClocks(t *testing.T, cfg *Config) func() []*timing.Clock {
	t.Helper()
	inprocess, err := LookupTransport(TransportInprocess)
	if err != nil {
		t.Fatal(err)
	}
	var rt Runtime
	cfg.transportFactory = func(spec TransportSpec) Runtime {
		rt = inprocess(spec)
		return rt
	}
	return func() []*timing.Clock { return rt.Clocks() }
}

// goldenVariants are the runs the golden tests pin: every built-in codec,
// plus uniform's 32-bit passthrough.
var goldenVariants = []struct {
	label, codec string
	bits         quant.BitWidth
}{
	{CodecFP32, CodecFP32, quant.B2},
	{CodecUniform, CodecUniform, quant.B2},
	{"uniform@32", CodecUniform, quant.B32},
	{CodecRandom, CodecRandom, quant.B2},
	{CodecAdaptive, CodecAdaptive, quant.B2},
	{CodecPipeGCN, CodecPipeGCN, quant.B2},
	{CodecSancus, CodecSancus, quant.B2},
}

// TestCodecGolden is the absolute fixed-seed oracle for "bit-identical"
// refactors of the message path: for every built-in codec (plus uniform's
// 32-bit passthrough) × {GCN, GraphSAGE} × {3, 4} parts on the tiny dataset
// it pins, as hex float64 bits, every epoch's loss and rank-0 SimTime, each
// device's Comm/Comp/Quant/Idle/Assign and final Now(), FinalTest, and the
// total bytes moved. The 3-part runs use a cost model where compute and wire
// time are comparable (some stages hide fully behind Comm, others do not);
// the 4-part runs use the default, latency-bound calibration. The Overlap
// column is omitted on purpose: it is bookkeeping that never moves a clock.
// A diff means numerics, the RNG stream, a charge or its order changed;
// regenerate with -update-codec-golden only when that is the intent.
func TestCodecGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("fixture generated on amd64; %s may fuse multiply-adds and round differently", runtime.GOARCH)
	}
	hex := func(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }
	balanced := timing.Default()
	balanced.Latency = 1e-6
	balanced.DenseFLOPS /= 400
	balanced.SparseFLOPS /= 400
	models := map[int]*timing.CostModel{3: balanced, 4: nil}

	ds := synthetic.MustLoad("tiny", 1)
	var got bytes.Buffer
	for _, model := range []ModelKind{GCN, GraphSAGE} {
		for _, parts := range []int{3, 4} {
			dep := testDeploy(ds, parts, model)
			for _, v := range goldenVariants {
				cfg := DefaultConfig()
				cfg.Model, cfg.Codec, cfg.UniformBits = model, v.codec, v.bits
				cfg.Hidden, cfg.Epochs, cfg.EvalEvery = 16, 7, 3
				cfg.ReassignPeriod, cfg.GroupSize = 3, 10
				cfg.Dropout = 0.2
				clocks := captureClocks(t, &cfg)
				res, err := TrainDeployed(dep, cfg, models[parts])
				if err != nil {
					t.Fatalf("%s/%v/%d: %v", v.label, model, parts, err)
				}
				tag := fmt.Sprintf("%s %v %d", v.label, model, parts)
				for _, e := range res.Epochs {
					fmt.Fprintf(&got, "%s epoch=%d loss=%s sim=%s\n", tag, e.Epoch, hex(e.Loss), hex(float64(e.SimTime)))
				}
				for r, c := range clocks() {
					fmt.Fprintf(&got, "%s dev=%d", tag, r)
					for _, cat := range []timing.Category{timing.Comm, timing.Comp, timing.Quant, timing.Idle, timing.Assign} {
						fmt.Fprintf(&got, " %v=%s", cat, hex(float64(c.Spent(cat))))
					}
					fmt.Fprintf(&got, " now=%s\n", hex(float64(c.Now())))
				}
				fmt.Fprintf(&got, "%s final test=%s bytes=%d\n", tag, hex(res.FinalTest), totalBytes(res.BytesMoved))
			}
		}
	}

	checkGolden(t, codecGoldenFile, got.Bytes(), *updateCodecGolden, "-update-codec-golden")
}

// checkGolden compares got with the committed golden file line by line, or
// rewrites the file when update is set (flag names the flag that does).
func checkGolden(t *testing.T, file string, got []byte, update bool, flag string) {
	t.Helper()
	if update {
		if err := os.WriteFile(file, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("%v (generate with %s)", err, flag)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s drifted at line %d:\n got %s\nwant %s", file, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s drifted: %d lines, want %d", file, len(gl), len(wl))
}

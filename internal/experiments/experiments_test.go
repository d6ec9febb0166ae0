package experiments

import (
	"bytes"
	"flag"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"unicode"

	"repro/internal/core"
	"repro/internal/synthetic"
)

// smoke is an ultra-reduced profile so every experiment finishes in well
// under a second while still executing its full code path.
var smoke = Profile{
	Name: "smoke", Scale: 0.05, FeatureCap: 24, Hidden: 16,
	EpochsLong: 3, EpochsShort: 2, EvalEvery: 2, Seeds: []uint64{1},
}

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/smoke_all.golden from this tree (only for an intended change of the printed numbers)")

// smokeAll is `-all` at the smoke profile, run once for the whole test
// binary on one Runner: the reports by id and how many trainings each
// experiment added. Tests are views over it, as the experiments are views
// over the Runner.
var smokeAll = sync.OnceValue(func() (s struct {
	runner  *Runner
	ids     []string
	reports map[string]*Report
	trained map[string]int
	err     error
}) {
	s.runner, s.reports, s.trained = &Runner{Profile: smoke}, map[string]*Report{}, map[string]int{}
	exps, err := Select(IDs())
	for _, e := range exps {
		if err != nil {
			break
		}
		before := s.runner.Trainings
		s.reports[e.ID], err = e.Run(s.runner)
		s.trained[e.ID] = s.runner.Trainings - before
		s.ids = append(s.ids, e.ID)
	}
	s.err = err
	return s
})

func report(t *testing.T, id string) *Report {
	t.Helper()
	s := smokeAll()
	if s.err != nil {
		t.Fatal(s.err)
	}
	return s.reports[id]
}

// num is the float64 cell of row i under the column called name.
func num(t *testing.T, rep *Report, i int, name string) float64 {
	t.Helper()
	c := slices.IndexFunc(rep.Columns, func(c Column) bool { return c.Name == name })
	v, ok := rep.Rows[i][c].(float64)
	if !ok {
		t.Fatalf("%s row %d column %q holds %#v, not a float64", rep.ID, i, name, rep.Rows[i][c])
	}
	return v
}

// The reports, rendered, are token for token what the parent commit's
// printf-per-experiment code printed at the same profile: the golden was
// captured there, before the refactor. Column padding is free; every label,
// number and printed precision is fixed. It also proves the Runner's reuse
// changes nothing, since the parent trained every table's cells afresh.
func TestReportsMatchGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, id := range smokeAll().ids {
		if err := report(t, id).WriteText(&buf); err != nil {
			t.Fatal(err)
		}
	}
	const path = "testdata/smoke_all.golden"
	golden, err := os.ReadFile(path)
	if *updateGolden {
		golden = []byte(keepLayout(buf.String(), string(golden)))
		err = os.WriteFile(path, golden, 0o644)
	}
	if err != nil {
		t.Fatal(err)
	}
	got, want := strings.Split(buf.String(), "\n"), strings.Split(string(golden), "\n")
	for i := range max(len(got), len(want)) {
		var g, w []string
		if i < len(got) {
			g = strings.Fields(got[i])
		}
		if i < len(want) {
			w = strings.Fields(want[i])
		}
		if !slices.Equal(g, w) {
			t.Fatalf("line %d:\n got  %q\n want %q", i+1, g, w)
		}
	}
}

// keepLayout is fresh, the rendered reports, in committed's layout, so that
// -update-golden's diff is only the rows whose numbers moved: a line with the
// committed fields stays byte for byte, a changed line with as many fields
// keeps the committed spacing around its new fields, and any other line is
// the fresh rendering.
func keepLayout(fresh, committed string) string {
	got, old := strings.Split(fresh, "\n"), strings.Split(committed, "\n")
	for i := range min(len(got), len(old)) {
		if g, w := strings.Fields(got[i]), strings.Fields(old[i]); len(g) == len(w) {
			got[i] = spliceFields(old[i], g)
		}
	}
	return strings.Join(got, "\n")
}

// spliceFields replaces line's whitespace-separated fields, in order, with
// fields (as many as strings.Fields finds), keeping every run of whitespace.
func spliceFields(line string, fields []string) string {
	var b strings.Builder
	inField := false
	for _, r := range line {
		switch {
		case unicode.IsSpace(r):
			b.WriteRune(r)
			inField = false
		case !inField:
			b.WriteString(fields[0])
			fields, inField = fields[1:], true
		}
	}
	return b.String()
}

// Each cell trains once: `-all` asks for 370 trainings, 89 of them
// distinct. Table 5/9 and Fig. 9/12 are views over Table 4's runs, Table 6
// trains only its Uniform rows and Fig. 11 all but its λ = 0.5 row, and
// their Vanilla baselines are Table 4's.
func TestEachCellTrainsOnce(t *testing.T) {
	report(t, "t4")
	s := smokeAll()
	want := map[string]int{"t1": 6, "f2": 0, "t2": 0, "f3": 0, "t4": 48, "t9": 0, "t6": 4, "t7": 4, "f12": 0, "f10": 16, "f11": 11}
	if !reflect.DeepEqual(s.trained, want) {
		t.Fatalf("trainings per experiment\n got  %v\n want %v", s.trained, want)
	}
	if s.runner.Trainings != 89 {
		t.Fatalf("%d trainings, want 89", s.runner.Trainings)
	}
}

func TestSelect(t *testing.T) {
	ids := func(ids ...string) []string { return ids }
	for _, c := range []struct{ ask, want []string }{
		{ids("t5"), ids("t9")}, // Table 9 holds Table 5
		{ids("t9", "t5"), ids("t9")},
		{ids("f9"), ids("f12")}, // f9 ⊂ f12
		{ids("f12", "f9"), ids("f12")},
		{ids("f11", "t1", "f2", "t1"), ids("t1", "f2", "f11")},
		{IDs(), ids("t1", "f2", "t2", "f3", "t4", "t9", "t6", "t7", "f12", "f10", "f11")},
	} {
		exps, err := Select(c.ask)
		if err != nil {
			t.Fatalf("Select(%v): %v", c.ask, err)
		}
		var got []string
		for _, e := range exps {
			got = append(got, e.ID)
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("Select(%v) = %v, want %v", c.ask, got, c.want)
		}
	}
	for _, bad := range []string{"t3", "f7", "tx", "4", ""} {
		_, err := Select(ids("t1", bad))
		if err == nil || !strings.Contains(err.Error(), "t1, f2, t2") {
			t.Errorf("Select(%q): error %v should name the valid ids", bad, err)
		}
	}
}

// A failed load or training surfaces as Run's error, not as a panic.
func TestRunReturnsTrainingErrors(t *testing.T) {
	for name, turn := range map[string]func(*Cell){
		"dataset": func(c *Cell) { c.Dataset = "no-such-sim" },
		"lambda":  func(c *Cell) { c.Lambda = 2 },
	} {
		e := Experiment{ID: "t0", Build: func(r *Runner) *Report {
			c := r.cell("reddit-sim", 2, core.GCN, core.CodecAdaptive, 2)
			turn(&c)
			r.train(c)
			return &Report{}
		}}
		if rep, err := e.Run(&Runner{Profile: smoke}); err == nil || rep != nil || !strings.HasPrefix(err.Error(), "t0: ") {
			t.Errorf("bad %s: report %v, error %v", name, rep, err)
		}
	}
}

// The one equivalence the views rely on: evaluation is off the simulated
// clock and draws no randomness, so a run that records validation accuracy
// (Table 4, Fig. 9/12) and one that does not (what Table 5/9 used to train)
// agree in every clock, score and loss bit, for every method an experiment
// trains.
func TestEvalIsOffTheClock(t *testing.T) {
	r := &Runner{Profile: smoke}
	for _, c := range []Cell{
		r.cell("reddit-sim", 4, core.GCN, core.CodecFP32, 6),
		r.cell("reddit-sim", 4, core.GCN, core.CodecSancus, 6),
		r.cell("reddit-sim", 4, core.GCN, core.CodecAdaptive, 6),
		r.cell("products-sim", 4, core.GraphSAGE, core.CodecPipeGCN, 6),
		r.cell("products-sim", 4, core.GraphSAGE, core.CodecAdaptive, 6),
		r.cell("products-sim", 4, core.GraphSAGE, core.CodecRandom, 6),
	} {
		g := c.Model.String() + " " + c.Codec
		with := r.train(c)
		c.EvalEvery = 0
		without := r.train(c)
		if xs, _ := with.Curve(); len(xs) == 0 {
			t.Fatalf("%v: the evaluating run recorded no curve", g)
		}
		if with.WallClock != without.WallClock || with.AssignTime != without.AssignTime || with.FinalTest != without.FinalTest ||
			!reflect.DeepEqual(with.PerDevice, without.PerDevice) {
			t.Errorf("%v: evaluation moved a clock or the score:\n with    %v %v %v\n without %v %v %v", g,
				with.WallClock, with.AssignTime, with.FinalTest, without.WallClock, without.AssignTime, without.FinalTest)
		}
		for i, e := range with.Epochs {
			if o := without.Epochs[i]; math.Float64bits(e.Loss) != math.Float64bits(o.Loss) || e.SimTime != o.SimTime {
				t.Errorf("%v epoch %d: loss %v at %v with evaluation, %v at %v without", g, i, e.Loss, e.SimTime, o.Loss, o.SimTime)
			}
		}
	}
	if r.Trainings != 12 {
		t.Fatalf("%d trainings, want 12: EvalEvery must be part of the memo key", r.Trainings)
	}
}

// Turning any field of a Cell must miss the memo; asking again must hit.
// Reflection walks the fields so that one added later is covered too.
func TestMemoKeyIsTheWholeCell(t *testing.T) {
	r := &Runner{Profile: smoke}
	base := r.cell("reddit-sim", 2, core.GCN, core.CodecAdaptive, 4)
	base.Lambda = 0.25
	turned := map[string]any{
		"Dataset": "yelp-sim", "Scale": synthetic.Scale(0.04), "FeatureCap": 16, "Parts": 3,
		"Model": core.GraphSAGE, "Codec": core.CodecRandom, "Hidden": 8, "Epochs": 5, "EvalEvery": 0,
		"GroupSize": 7, "Lambda": 0.75, "ReassignPeriod": 3, "Seed": uint64(2),
	}
	train := func(c Cell) int {
		before := r.Trainings
		r.train(c)
		return r.Trainings - before
	}
	if train(base) != 1 || train(base) != 0 {
		t.Fatal("the same cell must train once")
	}
	typ := reflect.TypeOf(base)
	for i := range typ.NumField() {
		name := typ.Field(i).Name
		v, ok := turned[name]
		if !ok {
			t.Fatalf("Cell.%s is new: give it a turned value here", name)
		}
		c := base
		reflect.ValueOf(&c).Elem().Field(i).Set(reflect.ValueOf(v))
		if train(c) != 1 {
			t.Errorf("a different %s reused another cell's training", name)
		}
		if train(c) != 0 || train(base) != 0 {
			t.Errorf("%s: a cell already trained trained again", name)
		}
	}
}

// At a profile of three seeds, a cell's accuracy is paired seed by seed with
// the Vanilla training at the same seed: the cell equals a hand computation
// from those six trainings, and asking for it trains nothing else. Vanilla's
// own row is its median alone, the throughput and speed-up read the first
// seed, and one deployment serves every seed. The cell's differences take
// both signs, and their median is not the difference of the medians.
func TestPairedSeeds(t *testing.T) {
	p := smoke
	p.Scale, p.Seeds = 1, []uint64{5, 2, 9}
	r := &Runner{Profile: p}
	c := r.cell("tiny", 2, core.GCN, core.CodecPipeGCN, 6)
	got, vanilla, speedUp := r.accuracy(c), r.accuracy(r.vanilla(c)), r.overVanilla(c)
	if r.Trainings != 6 || len(r.deps) != 1 || c.Seed != 5 {
		t.Fatalf("%d trainings on %d deployments from seed %d, want 6 on 1 from seed 5", r.Trainings, len(r.deps), c.Seed)
	}

	var acc, base, diff []float64
	var want Paired
	for _, seed := range p.Seeds {
		a := c
		a.Seed = seed
		v := a
		v.Codec = core.CodecFP32
		x, y := 100*r.train(a).FinalTest, 100*r.train(v).FinalTest
		d := x - y
		acc, base, diff = append(acc, x), append(base, y), append(diff, d)
		switch {
		case d > 0:
			want.Up++
		case d < 0:
			want.Down++
		default:
			want.Tie++
		}
	}
	if r.Trainings != 6 {
		t.Fatalf("the hand computation trained %d more cells: the pairing used other seeds", r.Trainings-6)
	}
	mid := func(xs []float64) float64 { return slices.Sorted(slices.Values(xs))[1] }
	m := (diff[0] + diff[1] + diff[2]) / 3
	want.Median, want.Delta = mid(acc), mid(diff)
	if base[0] == base[1] && base[1] == base[2] || want.Up == 0 || want.Down == 0 || want.Delta == mid(acc)-mid(base) {
		t.Fatalf("accuracies %v against Vanilla's %v cannot tell a pairing from another", acc, base)
	}
	want.SD = math.Sqrt(((diff[0]-m)*(diff[0]-m) + (diff[1]-m)*(diff[1]-m) + (diff[2]-m)*(diff[2]-m)) / 2)
	pc, ok := got.(Paired)
	if !ok || pc.Median != want.Median || pc.Delta != want.Delta || math.Abs(pc.SD-want.SD) > 1e-9 ||
		pc.Up != want.Up || pc.Tie != want.Tie || pc.Down != want.Down {
		t.Errorf("paired cell %#v, want %#v (accuracies %v, Vanilla %v)", got, want, acc, base)
	}
	if vanilla != mid(base) {
		t.Errorf("Vanilla's cell %#v, want its median %v alone", vanilla, mid(base))
	}
	v := c
	v.Codec = core.CodecFP32
	if speedUp != r.train(c).Throughput()/r.train(v).Throughput() {
		t.Errorf("speed-up %v does not read seed %d", speedUp, c.Seed)
	}
	if s := (Column{Prec: 2}).format(Paired{82.314, -0.125, 0.05, 2, 0, 1}); s != "82.31 Δ-0.12±0.05 +2/=0/-1" {
		t.Errorf("a paired cell prints as %q", s)
	}
}

// Table 1 (§2.2's motivation): Vanilla spends most of every epoch
// communicating, on every dataset and partition setting.
func TestTable1Smoke(t *testing.T) {
	rep := report(t, "t1")
	if len(rep.Rows) != 6 {
		t.Fatalf("%d rows, want 6", len(rep.Rows))
	}
	for i, row := range rep.Rows {
		if share := num(t, rep, i, "Communication Cost"); share <= 50 || share >= 100 {
			t.Errorf("%v %v: communication share %.1f%% outside (50, 100)", row[0], row[1], share)
		}
		if remote := num(t, rep, i, "Remote Neighbor Ratio"); remote <= 0 || remote >= 100 {
			t.Errorf("%v %v: remote-neighbor ratio %.1f%%", row[0], row[1], remote)
		}
	}
}

// Fig. 2: all 4·3 ordered device pairs, and the imbalance between them
// that motivates the assigner's minimax term.
func TestFigure2Smoke(t *testing.T) {
	rep := report(t, "f2")
	if len(rep.Rows) != 12 || rep.Rows[0][0] != "0_1" || rep.Rows[11][0] != "3_2" {
		t.Fatalf("pairs: %v", rep.Rows)
	}
	if len(rep.Notes) != 1 || !strings.HasPrefix(rep.Notes[0], "imbalance (max/min): ") {
		t.Fatalf("figure 2 should report the imbalance: %q", rep.Notes)
	}
}

// Table 2 / §2.2: even at 2 bits a device's marginal communication outlasts
// its central computation, so the overlap hides the latter completely —
// on all 8 devices.
func TestTable2CentralComputeIsHidden(t *testing.T) {
	rep := report(t, "t2")
	if len(rep.Rows) != 8 {
		t.Fatalf("%d devices, want 8", len(rep.Rows))
	}
	for i, row := range rep.Rows {
		if comm, comp := num(t, rep, i, "comm. (s)"), num(t, rep, i, "Comp. (s)"); comp > comm || row[3] != "yes" {
			t.Errorf("%v: central compute %.4fs against %.4fs of communication, hidden? %v", row[0], comp, comm, row[3])
		}
	}
}

// Fig. 3: marginal nodes are part of all nodes, and the printed ratio is
// their share.
func TestFigure3MarginalWithinAll(t *testing.T) {
	rep := report(t, "f3")
	for i, row := range rep.Rows {
		all, marginal, ratio := num(t, rep, i, "All (s)"), num(t, rep, i, "Marginal (s)"), num(t, rep, i, "Ratio (%)")
		if marginal <= 0 || marginal > all || math.Abs(ratio-100*marginal/all) > 1e-4 {
			t.Errorf("%v: marginal %v of all %v, ratio %v%%", row[0], marginal, all, ratio)
		}
	}
}

// Table 6: the Adaptive rows are Table 4's products-sim AdaQP rows — same
// cells, so same numbers — and each follows its Uniform twin.
func TestTable6Smoke(t *testing.T) {
	rep, t4 := report(t, "t6"), report(t, "t4")
	var adaptive [][]any
	for _, row := range t4.Rows {
		if row[0] == "products-sim" && row[3] == "AdaQP" {
			adaptive = append(adaptive, []any{row[1], row[2], "Adaptive", row[4], row[5]})
		}
	}
	if len(rep.Rows) != 8 || len(adaptive) != 4 {
		t.Fatalf("%d rows over %d AdaQP cells", len(rep.Rows), len(adaptive))
	}
	for i, want := range adaptive {
		uniform, got := rep.Rows[2*i], rep.Rows[2*i+1]
		if uniform[2] != "Uniform" || !reflect.DeepEqual(uniform[:2], want[:2]) {
			t.Errorf("row %d: %v is not the Uniform twin of %v", 2*i, uniform, want)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("row %d: %v, Table 4 has %v", 2*i+1, got, want)
		}
	}
}

// Table 7: AdaQP still out-runs Vanilla on 24 devices.
func TestTable7AdaQPAheadOn24Devices(t *testing.T) {
	rep := report(t, "t7")
	if len(rep.Rows) != 4 {
		t.Fatalf("%d rows, want 4", len(rep.Rows))
	}
	for _, i := range []int{1, 3} {
		vanilla, adaqp := num(t, rep, i-1, "Throughput (epoch/s)"), num(t, rep, i, "Throughput (epoch/s)")
		if rep.Rows[i][1] != "AdaQP" || adaqp <= vanilla || num(t, rep, i, "") != adaqp/vanilla {
			t.Errorf("%v: %v %.3f epoch/s against Vanilla's %.3f", rep.Rows[i][0], rep.Rows[i][1], adaqp, vanilla)
		}
	}
}

// Fig. 9/12 is a view: after Table 4 it trains nothing. One curve per
// dataset × model × method on the dataset's first partition setting, each
// starting at epoch 0 with a point per evaluation.
func TestFigure9Smoke(t *testing.T) {
	rep := report(t, "f12")
	if n := smokeAll().trained["f12"]; n != 0 {
		t.Errorf("Fig. 9/12 trained %d cells after Table 4", n)
	}
	// 4 datasets × 2 models × 3 methods, evaluated at epochs 0 and 2.
	if len(rep.Rows) != 48 {
		t.Fatalf("%d points, want 48", len(rep.Rows))
	}
	for i, row := range rep.Rows {
		if row[4] != 2*(i%2) || row[2] != setting[partsFor[row[0].(string)][0]] {
			t.Fatalf("point %d: %v", i, row)
		}
	}
}

// Fig. 10: the bars are the whole bar. Behind every row, each device's
// Comm + Comp + Quant + Idle + Assign (Overlap annotates hidden time and
// is not added) is that device's clock — which is the run's wall-clock on
// every device, the slowest included, because each epoch closes with an
// all-reduce — and only AdaQP spends time quantizing.
func TestFigure10BreakdownSumsToClock(t *testing.T) {
	rep := report(t, "f10")
	var rows int
	for c, res := range smokeAll().runner.runs {
		if c.Epochs != 4*smoke.EpochsShort {
			continue
		}
		rows++
		for d, b := range res.PerDevice {
			if sum, wall := float64(b.Total()), float64(res.WallClock); math.Abs(sum-wall) > 1e-9*wall {
				t.Errorf("%s %s/%d device %d: categories sum to %v, wall-clock %v", c.Codec, c.Dataset, c.Parts, d, sum, wall)
			}
			if quantizes := b.Quant > 0; quantizes != (c.Codec == core.CodecAdaptive) {
				t.Errorf("%s %s/%d device %d: Quant %v", c.Codec, c.Dataset, c.Parts, d, b.Quant)
			}
		}
	}
	if rows != len(rep.Rows) || rows != 16 {
		t.Fatalf("%d runs behind %d rows, want 16", rows, len(rep.Rows))
	}
	for i, row := range rep.Rows {
		if q := num(t, rep, i, "Quant(s)"); (q > 0) != (row[2] == "AdaQP") {
			t.Errorf("%v %v %v: Quant(s) %v", row[0], row[1], row[2], q)
		}
	}
}

func TestLoadDatasetFeatureCap(t *testing.T) {
	r := &Runner{Profile: smoke}
	if dep := r.deploy(r.cell("yelp-sim", 2, core.GCN, core.CodecFP32, 1)); dep.Dataset.Features.Cols != smoke.FeatureCap {
		t.Fatalf("feature cap not applied: %d cols", dep.Dataset.Features.Cols)
	}
}

func TestModelForScales(t *testing.T) {
	ds, err := synthetic.Load("products-sim", smoke.Scale)
	if err != nil {
		t.Fatal(err)
	}
	m := modelFor(ds)
	def := modelFor(&synthetic.Dataset{Name: "not-registered"})
	if m.Bandwidth >= def.Bandwidth || m.DenseFLOPS >= def.DenseFLOPS {
		t.Fatal("scaled model should be slower than default")
	}
	// Latency is scale-free.
	if m.Latency != def.Latency {
		t.Fatal("latency must not scale")
	}
	factor := def.Bandwidth / m.Bandwidth
	want := realNodeCounts["products-sim"] / float64(ds.NumNodes())
	if diff := factor - want; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("scale factor %v, want %v", factor, want)
	}
}

func TestSettingsFor(t *testing.T) {
	if p := partsFor["reddit-sim"]; setting[p[0]] != "2M-1D" || setting[p[1]] != "2M-2D" {
		t.Fatalf("reddit settings %v", p)
	}
	if p := partsFor["amazon-sim"]; setting[p[0]] != "2M-2D" || setting[p[1]] != "2M-4D" {
		t.Fatalf("amazon settings %v", p)
	}
}

package experiments

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
)

// Report is what every table and figure returns: typed rows under typed
// columns. Rendering is a view over it (WriteText is the only one today),
// and so are the tests, which assert on cells instead of on printed text.
type Report struct {
	ID      string // registry id, "t4" or "f10"
	Title   string // "Table 4 — Training performance comparison"
	Profile string
	Columns []Column
	// Rows hold one cell per column: a string, int, float64 or Paired, or
	// nil where the row has no value (Vanilla's speed-up over itself).
	Rows  [][]any
	Notes []string // printed under the rows, one per line
	// SeriesKey > 0 makes the report a set of curves: the first SeriesKey
	// columns name a series, printed once above its rows, and the others
	// are its comma-separated points (Fig. 9/12).
	SeriesKey int
}

// Column names one column and fixes how its numbers print.
type Column struct {
	Name      string // "" for an annotation of the column to its left
	Prec      int    // decimals of float64 and Paired cells
	Pre, Post string // printed around a float64 or a median: "", "%" or "(", "x)"
	Panel     bool   // first column of a figure's next panel: a bar precedes it
}

// Paired is an accuracy over a profile's seeds set against Vanilla's at
// the same seeds: the median, then the per-seed differences' median, sample
// SD (0 at one seed) and how many are above, at and below zero. It prints
// as "82.31 Δ+0.12±0.05 +2/=0/-1".
type Paired struct {
	Median, Delta, SD float64
	Up, Tie, Down     int
}

func (r *Report) add(cells ...any) { r.Rows = append(r.Rows, cells) }

func (c Column) format(cell any) string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', c.Prec, 64) }
	switch v := cell.(type) {
	case nil:
		return ""
	case string:
		return v
	case int:
		return strconv.Itoa(v)
	case float64:
		return c.Pre + f(v) + c.Post
	case Paired:
		return fmt.Sprintf("%s%s%s Δ%+.*f±%s +%d/=%d/-%d", c.Pre, f(v.Median), c.Post, c.Prec, v.Delta, f(v.SD), v.Up, v.Tie, v.Down)
	}
	panic(fmt.Sprintf("experiments: column %q holds a %T", c.Name, cell))
}

// WriteText renders the report the way the paper lays it out: a banner,
// the rows as a right-aligned table or as CSV series, then the notes.
func (r *Report) WriteText(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "\n=== %s (profile %s) ===\n", r.Title, r.Profile)
	line := func(cell func(int, Column) string) (cells []string) {
		for i, c := range r.Columns {
			if c.Panel {
				cells = append(cells, "|")
			}
			cells = append(cells, cell(i, c))
		}
		return cells
	}
	lines := [][]string{line(func(_ int, c Column) string { return c.Name })}
	for _, row := range r.Rows {
		lines = append(lines, line(func(i int, c Column) string { return c.format(row[i]) }))
	}
	if k := r.SeriesKey; k > 0 {
		var series []string
		for _, cells := range lines[1:] {
			if !slices.Equal(cells[:k], series) {
				series = cells[:k]
				fmt.Fprintf(&b, "\n# %s\n%s\n", strings.Join(series, " "), strings.Join(lines[0][k:], ","))
			}
			b.WriteString(strings.Join(cells[k:], ",") + "\n")
		}
	} else {
		tw := tabwriter.NewWriter(&b, 0, 0, 2, ' ', tabwriter.AlignRight)
		for _, cells := range lines {
			fmt.Fprintln(tw, strings.Join(cells, "\t")+"\t")
		}
		tw.Flush()
	}
	for _, n := range r.Notes {
		b.WriteString(n + "\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

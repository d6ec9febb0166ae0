// Command paper regenerates the paper's tables and figures.
//
//	paper -all                      # every experiment, quick profile
//	paper -table 1,2 -figure 9      # selected experiments
//	paper -profile standard -table 4
//
// Profiles trade fidelity for runtime (experiments.Profiles). One invocation
// trains each distinct configuration once, however many tables show it.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/experiments"
)

func exit(code int, err any) {
	fmt.Fprintf(os.Stderr, "paper: %v\n", err)
	os.Exit(code)
}

func main() {
	var profiles []string
	for _, p := range experiments.Profiles {
		profiles = append(profiles, p.Name)
	}
	valid := "; the experiments are " + strings.Join(experiments.IDs(), " ")
	tables := flag.String("table", "", "comma-separated table numbers, 4 for t4"+valid)
	figures := flag.String("figure", "", "comma-separated figure numbers, 10 for f10"+valid)
	all := flag.Bool("all", false, "run every experiment")
	profile := flag.String("profile", profiles[0], strings.Join(profiles, " | "))
	flag.Parse()

	p := slices.Index(profiles, *profile)
	if p < 0 {
		exit(2, fmt.Sprintf("unknown profile %q (want %s)", *profile, strings.Join(profiles, " | ")))
	}
	var ids []string
	if *all {
		ids = experiments.IDs()
	}
	comma := func(r rune) bool { return r == ',' }
	for _, n := range strings.FieldsFunc(*tables, comma) {
		ids = append(ids, "t"+n)
	}
	for _, n := range strings.FieldsFunc(*figures, comma) {
		ids = append(ids, "f"+n)
	}
	if len(ids) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	selected, err := experiments.Select(ids)
	if err != nil {
		exit(2, err)
	}
	runner := &experiments.Runner{Profile: experiments.Profiles[p]}
	for _, e := range selected {
		rep, err := e.Run(runner)
		if err == nil {
			err = rep.WriteText(os.Stdout)
		}
		if err != nil {
			exit(1, err)
		}
	}
}

// Command coach-experiments runs the registered paper experiments and
// prints their tables, or regenerates EXPERIMENTS.md with -markdown.
//
// Usage:
//
//	coach-experiments [-scale small|medium|full] [-preset NAME|spec.txt]
//	                  [-run id[,id...]] [-parallel n]
//	                  [-markdown] [-list]
//
// Experiments are independent, so -parallel n runs up to n of them
// concurrently over a shared context (n <= 0 uses GOMAXPROCS). Output is
// buffered per experiment and printed in selection order, so it is
// identical for any parallelism.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/coach-oss/coach/internal/experiments"
	"github.com/coach-oss/coach/internal/scenario"
)

func main() {
	scale := flag.String("scale", "medium", "input scale: small, medium or full")
	preset := flag.String("preset", "", "workload scenario (preset name or spec file) replacing the calibrated trace for every selected experiment")
	run := flag.String("run", "", "comma-separated experiment ids (default: all)")
	parallel := flag.Int("parallel", 1, "experiments to run concurrently (<=0: GOMAXPROCS)")
	markdown := flag.Bool("markdown", false, "emit Markdown (EXPERIMENTS.md format)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-16s %s\n", e.ID, e.Title)
		}
		return
	}

	s, err := experiments.ParseScale(*scale)
	if err != nil {
		fatal(err)
	}
	var selected []experiments.Experiment
	if *run == "" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*run, ",") {
			e, err := experiments.ByID(strings.TrimSpace(id))
			if err != nil {
				fatal(err)
			}
			selected = append(selected, e)
		}
	}

	ctx := experiments.NewContext(s)
	if *preset != "" {
		sp, err := scenario.Load(*preset)
		if err != nil {
			fatal(err)
		}
		ctx.Scenario = s.ScenarioSpec(sp)
	}
	if err := experiments.Write(os.Stdout, ctx, selected, *parallel, *markdown); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "coach-experiments:", err)
	os.Exit(1)
}

// Command cvbench regenerates every table and figure of the paper's
// evaluation (§6) against the synthetic corpora described in DESIGN.md.
//
// Usage:
//
//	cvbench [-run all|table2|table3|table4|table5|figure5|table6|table7|
//	         table8|table9|figure4|accuracy|discovery]
//	        [-full] [-scale S] [-seed N]
//
// With -full the corpora are generated at paper scale (Type B holds 2.3
// million instances; expect a multi-gigabyte heap and minutes of wall
// time). Without it, a quick configuration runs everything in seconds.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"confvalley"
	"confvalley/internal/experiments"
)

// catalog is every experiment -run names, in the order "all" runs them:
// the names an experiment answers to and the function that prints it.
var catalog = []struct {
	names []string
	run   func(experiments.Config)
}{
	{[]string{"table2"}, func(c experiments.Config) { experiments.Table2(c) }},
	{[]string{"table3"}, func(c experiments.Config) { experiments.Table3(c) }},
	{[]string{"table4"}, func(c experiments.Config) { experiments.Table4(c) }},
	{[]string{"table5"}, func(c experiments.Config) { experiments.Table5(c) }},
	{[]string{"figure5"}, func(c experiments.Config) { experiments.Figure5(c) }},
	{[]string{"table6", "table7"}, func(c experiments.Config) { experiments.BranchExperiment(c) }},
	{[]string{"table8"}, func(c experiments.Config) { experiments.Table8(c) }},
	{[]string{"table9"}, func(c experiments.Config) { experiments.Table9(c) }},
	{[]string{"figure4"}, func(c experiments.Config) { experiments.Figure4(c) }},
	{[]string{"accuracy"}, func(c experiments.Config) { experiments.InferenceAccuracy(c) }},
	{[]string{"discovery"}, func(c experiments.Config) { experiments.Discovery(c) }},
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		which   = flag.String("run", "all", "experiment to run (comma-separated; see package comment)")
		full    = flag.Bool("full", false, "paper-scale corpora (slow, memory-hungry)")
		scale   = flag.Float64("scale", 0, "override Type A scale (0 = preset)")
		seed    = flag.Int64("seed", 2015, "corpus generation seed")
		version = flag.Bool("version", false, "print the ConfValley version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Printf("cvbench version %s\n", confvalley.Version)
		return 0
	}

	cfg := experiments.Quick(os.Stdout)
	if *full {
		cfg = experiments.Full(os.Stdout)
	}
	if *scale > 0 {
		cfg.ScaleA = *scale
	}
	cfg.Seed = *seed

	// Every name must be known before anything runs, so that a list naming
	// a removed or misspelt experiment fails instead of running the rest.
	known := map[string]bool{"all": true}
	for _, e := range catalog {
		for _, n := range e.names {
			known[n] = true
		}
	}
	want := make(map[string]bool)
	for _, w := range strings.Split(*which, ",") {
		w = strings.TrimSpace(w)
		if !known[w] {
			fmt.Fprintf(os.Stderr, "cvbench: unknown experiment %q\n", w)
			return 2
		}
		want[w] = true
	}
	ran := 0
	for _, e := range catalog {
		if !want["all"] && !slices.ContainsFunc(e.names, func(n string) bool { return want[n] }) {
			continue
		}
		if ran > 0 {
			fmt.Println()
		}
		ran++
		e.run(cfg)
	}
	return 0
}

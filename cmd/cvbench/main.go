// Command cvbench regenerates every table and figure of the paper's
// evaluation (§6) against the synthetic corpora described in DESIGN.md.
//
// Usage:
//
//	cvbench [-run all|table2|table3|table4|table5|figure5|table6|table7|
//	         table8|table9|figure4|discovery|incremental]
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
	"strings"

	"confvalley"
	"confvalley/internal/experiments"
)

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

	want := make(map[string]bool)
	for _, w := range strings.Split(*which, ",") {
		want[strings.TrimSpace(w)] = true
	}
	all := want["all"]
	ran := 0
	sep := func() {
		if ran > 0 {
			fmt.Println()
		}
		ran++
	}

	if all || want["table2"] {
		sep()
		experiments.Table2(cfg)
	}
	if all || want["table3"] {
		sep()
		experiments.Table3(cfg)
	}
	if all || want["table4"] {
		sep()
		experiments.Table4(cfg)
	}
	if all || want["table5"] {
		sep()
		experiments.Table5(cfg)
	}
	if all || want["figure5"] {
		sep()
		experiments.Figure5(cfg)
	}
	if all || want["table6"] || want["table7"] {
		sep()
		experiments.BranchExperiment(cfg)
	}
	if all || want["table8"] {
		sep()
		experiments.Table8(cfg)
	}
	if all || want["table9"] {
		sep()
		experiments.Table9(cfg)
	}
	if all || want["figure4"] {
		sep()
		experiments.Figure4(cfg)
	}
	if all || want["accuracy"] {
		sep()
		experiments.InferenceAccuracy(cfg)
	}
	if all || want["discovery"] {
		sep()
		experiments.Discovery(cfg)
	}
	if all || want["incremental"] {
		sep()
		experiments.Incremental(cfg)
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "cvbench: unknown experiment %q\n", *which)
		return 2
	}
	return 0
}

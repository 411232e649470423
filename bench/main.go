// Command bench is the repository's benchmark (BENCHMARK.json, README.md
// in this directory). One invocation runs one workload:
//
//	bench --workload novel_xml --seed 7 --seconds 20 --trace 0
//
// and prints, as the last line of standard output, one JSON object with
// the keys correct, attempted, failed and metrics. bench/run.sh builds
// and runs it; --compare a b compares two files of captured output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "one of novel_xml, expert_eval, repeat_hit, cli_kv_b")
		seed     = fs.Int64("seed", pinnedSeed, "seed every input is derived from")
		seconds  = fs.Float64("seconds", 20, "length of the measured window")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics, nothing traced; 1: per-layer metrics from a traced run")
		compare  = fs.Bool("compare", false, "compare two files of captured output: --compare before after")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: --compare takes two files")
			return 2
		}
		if err := compareFiles(fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		return 0
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "bench: want --workload NAME --seed N --seconds S --trace 0|1")
		return 2
	}
	cfg := runConfig{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		sizes:    fullSizes,
		procs:    1, // one client on one processor: README.md, "Load model"
		workDir:  filepath.Join(".bench_build", "run"),
	}
	// Progress goes to standard error; standard output carries the run
	// header --compare keys on and the result line, and stays empty when
	// a gate fails.
	res, err := runWorkload(cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "# run workload=%s seed=%d trace=%d\n%s\n", cfg.workload, cfg.seed, *trace, line)
	if !res.Correct {
		return 1
	}
	return 0
}

// Command cvcheck is ConfValley's batch validator: it loads configuration
// sources, compiles a CPL specification file, and reports violations —
// the main usage scenario of §5.1.
//
// Usage:
//
//	cvcheck -spec checks.cpl [-data xml:/path/settings.xml[:Scope]]...
//	        [-parallel N] [-stop] [-json] [-watch 2s]
//	        [-load-timeout 5s] [-max-stale N] [-lint] [-version]
//
// -lint runs the static-analysis passes (internal/lint, the same ones
// cvlint runs) over the specification before validating, using the
// loaded configuration as the corpus-drift snapshot: findings below
// error severity print to stderr as advisories; an error-severity
// finding rejects the specification (exit 2) before validation.
//
// Data sources may also come from load commands inside the specification
// file. With -watch, cvcheck revalidates whenever the specification or a
// data file changes — the continuous-validation scenario of §5.1. Watch
// rounds are incremental: each round hands its retained state to the
// next (runner.Job.Prev), so only the specifications whose footprint
// overlaps the keys changed since the last round re-run. With both
// -watch and -json, each round prints one wire-format JSON report object
// (schema_version-stamped; see internal/report.Wire) to stdout, flushed
// per round so pipe consumers see reports promptly; human-oriented text
// goes to stderr.
//
// Loading is fault tolerant: a malformed or unreadable source is
// quarantined (and, across watch rounds, served from its last good parse
// for up to -max-stale rounds; 0 = forever, negative = never) instead of
// aborting the round, with per-source accounting on stderr. -load-timeout
// bounds each round; the deadline — or Ctrl-C — stops the round
// mid-flight with a partial report marked as interrupted, whose counted
// specifications all ran to completion and which is never the baseline
// of a later incremental round.
//
// The load→compile→validate→report orchestration itself lives in
// internal/runner — the same code path cvserve drives per tenant — so
// this command is only flag parsing, rendering, and the watch loop.
//
// Exit status:
//
//	0  validation ran and found no violations
//	1  validation ran and found violations (or spec errors)
//	2  usage, specification or compilation error
//	3  every configuration source failed to load — nothing was validated
//
// A degraded round that still has data (some sources fresh or stale)
// validates normally and exits 0 or 1; only a round with nothing at all
// to validate exits 3.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"confvalley"
	"confvalley/internal/runner"
)

type dataFlags []string

func (d *dataFlags) String() string { return strings.Join(*d, ",") }
func (d *dataFlags) Set(s string) error {
	*d = append(*d, s)
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cvcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		specPath    = fs.String("spec", "", "CPL specification file (required)")
		parallel    = fs.Int("parallel", 0, "validate specifications in N parallel partitions (0 = one per hardware thread, 1 = sequential)")
		stop        = fs.Bool("stop", false, "stop at the first violation")
		asJSON      = fs.Bool("json", false, "emit the report as wire-format JSON")
		watch       = fs.Duration("watch", 0, "revalidate at this interval when spec or data files change (0 = run once)")
		rounds      = fs.Int("watch-rounds", 0, "with -watch, exit after this many validation rounds (0 = forever; for tests)")
		loadTimeout = fs.Duration("load-timeout", 0, "bound each validation round (loading plus validation); 0 = no bound")
		maxStale    = fs.Int("max-stale", 0, "serve a failing source from its last good parse for at most N watch rounds (0 = forever, negative = never)")
		doLint      = fs.Bool("lint", false, "run the static-analysis passes over the specification before validating; error-severity findings reject the spec (exit 2)")
		version     = fs.Bool("version", false, "print the ConfValley version and exit")
		data        dataFlags
	)
	fs.Var(&data, "data", "configuration source as format:path[:scope]; repeatable")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Fprintf(stdout, "cvcheck version %s (report schema v%d)\n", confvalley.Version, confvalley.ReportSchemaVersion)
		return 0
	}
	if *specPath == "" {
		fmt.Fprintln(stderr, "cvcheck: -spec is required")
		fs.Usage()
		return 2
	}

	// -data arguments are validated up front: a malformed flag is a usage
	// error (exit 2), unlike a source that later fails to load.
	var dataSources []confvalley.Source
	for _, d := range data {
		format, path, scope, err := splitDataArg(d)
		if err != nil {
			fmt.Fprintf(stderr, "cvcheck: %v\n", err)
			return 2
		}
		dataSources = append(dataSources, confvalley.Source{Name: path, Format: format, Scope: scope})
	}

	// Ctrl-C / SIGTERM cancels the run: loading stops between sources and
	// validation between specifications, and the partial report — clearly
	// marked as interrupted — is still rendered.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	// The runner persists across watch rounds: one session (so the
	// compiled program and its cached executable plan survive rounds
	// where only data changed) and the swap-in of each round's freshly
	// built store. A watch round hands the previous round's state to the
	// next job, which makes it incremental and starts its loads from the
	// previous round's parses: a source torn mid-write in round N serves
	// round N-1's parse.
	var prev *confvalley.RunState
	r := runner.New(runner.Options{
		Parallel:    *parallel,
		StopOnFirst: *stop,
		MaxStale:    *maxStale,
		LoadTimeout: *loadTimeout,
		SpecDir:     filepath.Dir(*specPath),
		Env:         confvalley.HostEnv(),
		Lint:        *doLint,
	})

	validateOnce := func(ctx context.Context) int {
		res, err := r.Run(ctx, runner.Job{SpecPath: *specPath, Sources: dataSources, Prev: prev})
		if err != nil {
			var le *runner.LintError
			if errors.As(err, &le) {
				for _, d := range le.Diagnostics {
					fmt.Fprintln(stderr, d)
				}
			}
			fmt.Fprintf(stderr, "cvcheck: %v\n", err)
			return 2
		}
		// Lint findings below error severity are advisory: printed to
		// stderr, no effect on the exit code.
		for _, d := range res.Diagnostics {
			fmt.Fprintln(stderr, d)
		}
		if res.Data != nil {
			for _, o := range res.Data.Outcomes {
				switch {
				case o.Err != "":
				case o.Projected != nil:
					fmt.Fprintf(stderr, "cvcheck: loaded %d instance(s) from %s (%d read by the specification)\n", o.Instances, o.Source, *o.Projected)
				default:
					fmt.Fprintf(stderr, "cvcheck: loaded %d instance(s) from %s\n", o.Instances, o.Source)
				}
			}
			res.Data.Render(stderr)
		}
		if res.SpecLoads != nil {
			res.SpecLoads.Render(stderr)
		}
		if *watch > 0 {
			prev = res.State
			rep := res.Report
			fmt.Fprintf(stderr, "cvcheck: re-ran %d/%d specs (%d reused)\n",
				rep.SpecsRun-rep.SpecsReused, rep.SpecsRun, rep.SpecsReused)
		}
		switch {
		case *asJSON && *watch > 0:
			// Watch mode emits one compact wire-format JSON object per
			// round on stdout — a machine-consumable JSONL stream,
			// flushed per round; all human-oriented text (round banners,
			// load counts, re-run stats) stays on stderr.
			b, err := res.Report.EncodeWire()
			if err != nil {
				fmt.Fprintf(stderr, "cvcheck: %v\n", err)
				return 2
			}
			fmt.Fprintln(stdout, string(b))
			flush(stdout)
		case *asJSON:
			b, err := res.Report.EncodeWireIndented()
			if err != nil {
				fmt.Fprintf(stderr, "cvcheck: %v\n", err)
				return 2
			}
			fmt.Fprintln(stdout, string(b))
		default:
			if err := res.Report.Render(stdout); err != nil {
				fmt.Fprintf(stderr, "cvcheck: %v\n", err)
				return 2
			}
		}
		if res.AllSourcesFailed() {
			fmt.Fprintf(stderr, "cvcheck: every configuration source failed to load; nothing was validated\n")
		}
		return res.Code()
	}

	if *watch <= 0 {
		return validateOnce(ctx)
	}
	return watchLoop(ctx, *specPath, data, *watch, *rounds, validateOnce)
}

// flush pushes buffered output through to the consumer. Watch mode's
// JSONL stream is only useful if each round's report is visible as soon
// as the round ends — a pipe consumer must not wait for a buffer to
// fill (or the process to exit) to see round 1.
func flush(w io.Writer) {
	switch f := w.(type) {
	case interface{ Flush() error }:
		f.Flush()
	case interface{ Flush() }:
		f.Flush()
	case interface{ Sync() error }:
		f.Sync()
	}
}

// watchLoop revalidates whenever the specification file or any data file
// changes, polling modification times at the given interval. maxRounds
// bounds the number of validation rounds (0 = unbounded); the exit code
// is the last round's. Context cancellation (Ctrl-C) ends the loop after
// the in-flight round, returning its code.
func watchLoop(ctx context.Context, specPath string, data []string, interval time.Duration, maxRounds int, validate func(context.Context) int) int {
	files := []string{specPath}
	for _, d := range data {
		if _, path, _, err := splitDataArg(d); err == nil {
			files = append(files, path)
		}
	}
	stamp := func() string {
		var b strings.Builder
		for _, f := range files {
			if info, err := os.Stat(f); err == nil {
				fmt.Fprintf(&b, "%s=%d/%d;", f, info.ModTime().UnixNano(), info.Size())
			} else {
				fmt.Fprintf(&b, "%s=gone;", f)
			}
		}
		return b.String()
	}

	last := ""
	code := 0
	for round := 0; ; {
		now := stamp()
		if now != last {
			last = now
			round++
			fmt.Fprintf(os.Stderr, "cvcheck: validation round %d\n", round)
			code = validate(ctx)
			if maxRounds > 0 && round >= maxRounds {
				return code
			}
		}
		select {
		case <-ctx.Done():
			return code
		case <-time.After(interval):
		}
	}
}

// splitDataArg parses format:path[:scope] through the shared runner
// helper (cvcall accepts the same syntax).
func splitDataArg(arg string) (format, path, scope string, err error) {
	src, err := runner.ParseSourceArg(arg)
	if err != nil {
		return "", "", "", fmt.Errorf("bad -data %q; want format:path[:scope]", arg)
	}
	return src.Format, src.Name, src.Scope, nil
}

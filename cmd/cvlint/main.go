// Command cvlint runs the CPL static-analysis passes (internal/lint)
// over specification files: contradictions, type mismatches, dead and
// duplicated specs, macro hygiene, incremental-validation performance
// hazards, and — when a configuration snapshot is supplied — corpus
// drift.
//
// Usage:
//
//	cvlint [-json] [-data format:path[:scope]]... [-analyzers a,b]
//	       [-disable a,b] [-fail-on error|warning|info] [-version]
//	       path...
//
// Each path is a .cpl file or a directory walked recursively for .cpl
// files (the specs/lintcorpus fixtures, recognizable by their .want
// golden companions, are skipped when walking). Diagnostics print as
// file:line:col with a severity, a message, and a stable CVnnn code;
// -json switches to the schema_version-stamped wire format shared with
// the validation service. Suppress a finding by appending a
// "// cvlint:disable [CODE,...]" comment to its line.
//
// Exit status:
//
//	0  all files linted clean (at or above the -fail-on threshold)
//	1  diagnostics at or above the -fail-on threshold were reported
//	2  usage error, or a path could not be read
package main

import (
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"confvalley"
	"confvalley/internal/config"
	"confvalley/internal/driver"
	"confvalley/internal/lint"
	"confvalley/internal/runner"
)

type listFlags []string

func (l *listFlags) String() string { return strings.Join(*l, ",") }
func (l *listFlags) Set(s string) error {
	*l = append(*l, s)
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cvlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		asJSON    = fs.Bool("json", false, "emit diagnostics as schema-stamped JSON")
		analyzers = fs.String("analyzers", "", "run only these analyzers (comma-separated; empty = all)")
		disable   = fs.String("disable", "", "skip these analyzers (comma-separated)")
		failOn    = fs.String("fail-on", "warning", "lowest severity that fails the run: error, warning or info")
		list      = fs.Bool("list", false, "list registered analyzers and exit")
		version   = fs.Bool("version", false, "print version and exit")
		data      listFlags
	)
	fs.Var(&data, "data", "configuration snapshot for data-aware analyses, format:path[:scope]; repeatable")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Fprintf(stdout, "cvlint version %s (lint schema v%d)\n", confvalley.Version, lint.SchemaVersion)
		return 0
	}
	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stdout, "%-14s %s (%s)\n", a.Name, a.Doc, strings.Join(a.Codes, ", "))
		}
		return 0
	}

	var threshold lint.Severity
	switch *failOn {
	case "error":
		threshold = lint.Error
	case "warning":
		threshold = lint.Warning
	case "info":
		threshold = lint.Info
	default:
		fmt.Fprintf(stderr, "cvlint: bad -fail-on %q; want error, warning or info\n", *failOn)
		return 2
	}

	files, err := collectFiles(fs.Args())
	if err != nil {
		fmt.Fprintf(stderr, "cvlint: %v\n", err)
		return 2
	}
	if len(files) == 0 {
		fmt.Fprintln(stderr, "usage: cvlint [flags] path...")
		fs.PrintDefaults()
		return 2
	}

	snap, err := loadSnapshot(data)
	if err != nil {
		fmt.Fprintf(stderr, "cvlint: %v\n", err)
		return 2
	}

	opts := lint.Options{Snapshot: snap}
	if *analyzers != "" {
		opts.Analyzers = splitList(*analyzers)
	}
	if *disable != "" {
		opts.Disable = splitList(*disable)
	}

	var results []lint.Result
	failing := 0
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			fmt.Fprintf(stderr, "cvlint: %v\n", err)
			return 2
		}
		fileOpts := opts
		fileOpts.Resolver = func(path string) (string, error) {
			return confvalley.ReadInclude(filepath.Dir(f), path)
		}
		res := lint.Run(f, string(src), fileOpts)
		results = append(results, res)
		for _, d := range res.Diagnostics {
			if d.Severity >= threshold {
				failing++
			}
		}
	}

	if *asJSON {
		b, err := lint.MarshalResults(results)
		if err != nil {
			fmt.Fprintf(stderr, "cvlint: %v\n", err)
			return 2
		}
		fmt.Fprintln(stdout, string(b))
	} else {
		total := 0
		for _, res := range results {
			for _, d := range res.Diagnostics {
				fmt.Fprintln(stdout, d)
				total++
			}
		}
		errs, warns, infos := 0, 0, 0
		for _, res := range results {
			e, w, i := res.Counts()
			errs, warns, infos = errs+e, warns+w, infos+i
		}
		if total > 0 {
			fmt.Fprintf(stdout, "%d file(s): %d error(s), %d warning(s), %d info(s)\n",
				len(files), errs, warns, infos)
		}
	}

	if failing > 0 {
		return 1
	}
	return 0
}

// collectFiles expands path arguments: files pass through, directories
// are walked for .cpl files. The lintcorpus fixture directory
// (recognized by golden .want companions) is skipped during walks —
// its files are deliberately broken.
func collectFiles(paths []string) ([]string, error) {
	var files []string
	for _, p := range paths {
		info, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			files = append(files, p)
			continue
		}
		err = filepath.WalkDir(p, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".cpl") {
				return nil
			}
			if _, err := os.Stat(strings.TrimSuffix(path, ".cpl") + ".want"); err == nil {
				return nil // golden fixture: deliberately broken
			}
			files = append(files, path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(files)
	return files, nil
}

// loadSnapshot assembles the -data sources into one store.
func loadSnapshot(args []string) (*config.Store, error) {
	if len(args) == 0 {
		return nil, nil
	}
	st := config.NewStore()
	for _, arg := range args {
		src, err := runner.ParseSourceArg(arg)
		if err != nil {
			return nil, fmt.Errorf("bad -data %q; want format:path[:scope]", arg)
		}
		b, err := os.ReadFile(src.Name)
		if err != nil {
			return nil, err
		}
		if _, err := driver.LoadInto(st, src.Format, b, src.Name, src.Scope); err != nil {
			return nil, err
		}
	}
	return st, nil
}

func splitList(s string) []string {
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if t := strings.TrimSpace(p); t != "" {
			out = append(out, t)
		}
	}
	return out
}

// Package experiments reproduces every table and figure of the paper's
// evaluation (§6) on the synthetic corpora: cmd/cvbench prints them and
// the repository's benchmarks exercise them. Each experiment returns its
// data so EXPERIMENTS.md can record paper-vs-measured values.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"confvalley/internal/azuregen"
	"confvalley/internal/compiler"
	"confvalley/internal/config"
	"confvalley/internal/cpl/ast"
	"confvalley/internal/cpl/parser"
	"confvalley/internal/driver"
	"confvalley/internal/engine"
	"confvalley/internal/infer"
	"confvalley/internal/legacy"
	"confvalley/internal/plan"
	"confvalley/internal/refeval"
	"confvalley/internal/report"
	"confvalley/internal/simenv"
	"confvalley/specs"
)

// Config parameterizes an experiment run.
type Config struct {
	// ScaleA/ScaleB/ScaleC scale the three corpora; 1.0 is paper scale
	// (67k / 2.3M / 2.3k instances).
	ScaleA, ScaleB, ScaleC float64
	Seed                   int64
	W                      io.Writer
}

// Quick returns a configuration sized for seconds-long runs.
func Quick(w io.Writer) Config {
	return Config{ScaleA: 0.1, ScaleB: 0.005, ScaleC: 1.0, Seed: 2015, W: w}
}

// Full returns the paper-scale configuration (Type B allocates ~2.3
// million instances; expect minutes and gigabytes).
func Full(w io.Writer) Config {
	return Config{ScaleA: 1.0, ScaleB: 1.0, ScaleC: 1.0, Seed: 2015, W: w}
}

func (c Config) printf(format string, args ...interface{}) {
	if c.W != nil {
		fmt.Fprintf(c.W, format, args...)
	}
}

// ---- Table 2: driver code size ----

// Table2Row is one driver's size.
type Table2Row struct {
	Format string
	LoC    int
}

// Table2 reports per-format driver code size.
func Table2(cfg Config) []Table2Row {
	byFormat := driver.LoCByFormat()
	names := make([]string, 0, len(byFormat))
	for n := range byFormat {
		names = append(names, n)
	}
	sort.Strings(names)
	cfg.printf("Table 2: driver code per configuration format\n")
	cfg.printf("%-26s %s\n", "Config. format", "Driver (LOC)")
	var rows []Table2Row
	for _, n := range names {
		rows = append(rows, Table2Row{Format: n, LoC: byFormat[n]})
		cfg.printf("%-26s %d\n", n, byFormat[n])
	}
	return rows
}

// ---- Tables 3 & 4: rewriting existing validation code ----

// RewriteRow compares one imperative module with its CPL rewrite.
type RewriteRow struct {
	Name      string
	OrigLoC   int
	CPLLoC    int
	SpecCount int
	Inferable int // -1 when inference does not apply (Table 4)
}

// Table3 reports the Azure rewrite comparison, including how many of the
// translated specifications the inference engine generates on its own.
func Table3(cfg Config) []RewriteRow {
	// Corpora the suites validate, also used as inference input.
	aStore := config.NewStore()
	azuregen.AddExpertSubstrate(aStore, 40, cfg.Seed)
	bStore := azuregen.GenerateB(cfg.ScaleB, cfg.Seed).Store
	cStore := azuregen.GenerateC(cfg.ScaleC, cfg.Seed).Store

	rows := []RewriteRow{
		rewriteRow("Type A", "typea.go", specs.AzureTypeA(), aStore),
		rewriteRow("Type B", "typeb.go", specs.AzureTypeB(), bStore),
		rewriteRow("Type C", "typec.go", specs.AzureTypeC(), cStore),
	}
	cfg.printf("Table 3: express validation code for Azure-style configuration in CPL\n")
	cfg.printf("%-8s %10s %9s %7s %10s\n", "Config.", "Orig. LOC", "CPL LOC", "Count", "Inferable")
	for _, r := range rows {
		cfg.printf("%-8s %10d %9d %7d %10d\n", r.Name, r.OrigLoC, r.CPLLoC, r.SpecCount, r.Inferable)
	}
	return rows
}

// Table4 reports the open-source rewrite comparison.
func Table4(cfg Config) []RewriteRow {
	osStore := config.NewStore()
	if _, err := driver.LoadInto(osStore, "yaml", specs.OpenStackConfig(), "openstack.yaml", ""); err != nil {
		panic(err)
	}
	csStore := config.NewStore()
	if _, err := driver.LoadInto(csStore, "json", specs.CloudStackConfig(), "cloudstack.json", ""); err != nil {
		panic(err)
	}
	rows := []RewriteRow{
		rewriteRow("OpenStack", "openstack.go", specs.OpenStack(), osStore),
		rewriteRow("CloudStack", "cloudstack.go", specs.CloudStack(), csStore),
	}
	cfg.printf("Table 4: express open-source validation code in CPL\n")
	cfg.printf("%-11s %10s %9s %7s\n", "System", "Orig. LOC", "CPL LOC", "Count")
	for _, r := range rows {
		cfg.printf("%-11s %10d %9d %7d\n", r.Name, r.OrigLoC, r.CPLLoC, r.SpecCount)
	}
	return rows
}

func rewriteRow(name, module, suite string, st *config.Store) RewriteRow {
	orig, err := legacy.ModuleLoC(module)
	if err != nil {
		panic(err)
	}
	res := infer.Infer(st, infer.Defaults())
	inferable, total := InferableSpecs(suite, st, res)
	return RewriteRow{
		Name:      name,
		OrigLoC:   orig,
		CPLLoC:    specs.CountLoC(suite),
		SpecCount: total,
		Inferable: inferable,
	}
}

// InferableSpecs counts the suite's specifications that the inference
// engine generates on its own: plain (uncompartmented, unconditional)
// conjunctions of basic constraints — types, nonemptiness, ranges,
// enumerations, uniqueness, consistency — whose classes received the same
// constraint kinds from inference. Relational checks, compartment-scoped
// checks, pipelines and dynamic predicates are expert territory.
func InferableSpecs(suiteSrc string, st *config.Store, res *infer.Result) (inferable, total int) {
	stmts, err := parser.Parse(suiteSrc)
	if err != nil {
		panic(fmt.Sprintf("suite does not parse: %v", err))
	}
	perClass := make(map[string]map[string]bool)
	for class, cs := range res.PerClass {
		kinds := make(map[string]bool)
		for _, c := range cs {
			k := c.Kind.String()
			if k == "Enum" {
				k = "Range" // membership and interval are one category
			}
			kinds[k] = true
		}
		perClass[class] = kinds
	}
	var walk func(ss []ast.Stmt, compartmented bool)
	walk = func(ss []ast.Stmt, compartmented bool) {
		for _, s := range ss {
			switch t := s.(type) {
			case *ast.BlockStmt:
				walk(t.Body, compartmented || t.Kind == ast.BlockCompartment)
			case *ast.IfStmt:
				total++ // the guarded statements count as one expert spec each
				walk(nil, false)
			case *ast.SpecStmt:
				total++
				if compartmented || t.Quant != ast.QuantAll {
					continue
				}
				if specInferable(t, st, perClass) {
					inferable++
				}
			}
		}
	}
	walk(stmts, false)
	return inferable, total
}

func specInferable(s *ast.SpecStmt, st *config.Store, perClass map[string]map[string]bool) bool {
	ref, ok := s.Domain.(*ast.Ref)
	if !ok {
		return false // pipelines and arithmetic are not inferable
	}
	kinds, ok := basicKinds(s.Pred)
	if !ok {
		return false
	}
	ins := st.Discover(ref.Pattern)
	if len(ins) == 0 {
		return false
	}
	classes := make(map[string]bool)
	for _, in := range ins {
		classes[in.Key.ClassPath()] = true
	}
	for class := range classes {
		have := perClass[class]
		for k := range kinds {
			if !have[k] {
				return false
			}
		}
	}
	return true
}

// basicKinds maps a predicate conjunction to inference categories; the
// second result is false when any conjunct is beyond black-box inference.
func basicKinds(p ast.Pred) (map[string]bool, bool) {
	out := make(map[string]bool)
	var walk func(p ast.Pred) bool
	walk = func(p ast.Pred) bool {
		switch t := p.(type) {
		case *ast.And:
			return walk(t.L) && walk(t.R)
		case *ast.TypePred:
			out["Type"] = true
			return true
		case *ast.Prim:
			switch t.Name {
			case "nonempty":
				out["Nonempty"] = true
			case "unique":
				out["Uniqueness"] = true
			case "consistent":
				out["Consistency"] = true
			default:
				return false // exists, reachable, ordered: expert checks
			}
			return true
		case *ast.Range:
			_, lok := t.Lo.(*ast.Lit)
			_, hok := t.Hi.(*ast.Lit)
			if !lok || !hok {
				return false
			}
			out["Range"] = true
			return true
		case *ast.Enum:
			for _, e := range t.Elems {
				if _, ok := e.(*ast.Lit); !ok {
					return false
				}
			}
			out["Range"] = true
			return true
		default:
			return false
		}
	}
	if !walk(p) {
		return nil, false
	}
	return out, true
}

// ---- Table 5 & Figure 5: automatic inference ----

// Table5Row is one corpus's inference summary.
type Table5Row struct {
	Name      string
	Classes   int
	Instances int
	Counts    map[string]int
	Total     int
}

var table5Categories = []string{"Type", "Nonempty", "Range", "Equality", "Consistency", "Uniqueness"}

// Table5 runs inference over the three corpora and tallies constraints by
// category.
func Table5(cfg Config) []Table5Row {
	corpora := []*azuregen.Corpus{
		azuregen.GenerateA(cfg.ScaleA, cfg.Seed),
		azuregen.GenerateB(cfg.ScaleB, cfg.Seed),
		azuregen.GenerateC(cfg.ScaleC, cfg.Seed),
	}
	cfg.printf("Table 5: validation constraint inference\n")
	cfg.printf("%-8s %8s %10s %6s %9s %6s %9s %12s %11s %6s\n",
		"Config.", "Class", "Instance", "Type", "Nonempty", "Range", "Equality", "Consistency", "Uniqueness", "Total")
	var rows []Table5Row
	for _, c := range corpora {
		res := infer.Infer(c.Store, infer.Defaults())
		counts := res.CountByKind()
		total := 0
		for _, n := range counts {
			total += n
		}
		row := Table5Row{Name: c.Type.String(), Classes: c.Classes, Instances: c.Instances, Counts: counts, Total: total}
		rows = append(rows, row)
		cfg.printf("%-8s %8d %10d %6d %9d %6d %9d %12d %11d %6d\n",
			row.Name, row.Classes, row.Instances,
			counts["Type"], counts["Nonempty"], counts["Range"],
			counts["Equality"], counts["Consistency"], counts["Uniqueness"], total)
	}
	return rows
}

// Figure5 reports the histogram of inferred-constraint counts per Type A
// configuration key.
func Figure5(cfg Config) []int {
	c := azuregen.GenerateA(cfg.ScaleA, cfg.Seed)
	res := infer.Infer(c.Store, infer.Defaults())
	h := res.Histogram(4)
	cfg.printf("Figure 5: histogram of inferred constraints per configuration key (Type A, %d keys)\n", c.Classes)
	for n, count := range h {
		label := fmt.Sprintf("%d", n)
		if n == len(h)-1 {
			label += "+"
		}
		bar := strings.Repeat("#", scaleBar(count, c.Classes, 50))
		cfg.printf("  %2s constraints: %5d %s\n", label, count, bar)
	}
	return h
}

func scaleBar(v, total, width int) int {
	if total == 0 {
		return 0
	}
	return v * width / total
}

// ---- Tables 6 & 7: preventing configuration errors ----

// ErrorRow is one branch's error-detection outcome.
type ErrorRow struct {
	Branch         string
	Reported       int
	FalsePositives int
	Unattributed   int
}

// BranchExperiment builds the good snapshot and the three paper branches,
// then validates each branch with the expert suite (Table 6) and the
// inferred suite (Table 7).
func BranchExperiment(cfg Config) (table6, table7 []ErrorRow) {
	good, branches := azuregen.GenerateBranches(cfg.ScaleA, cfg.Seed, azuregen.PaperBranches)
	expertProg, err := compiler.Compile(specs.AzureTypeA())
	if err != nil {
		panic(err)
	}
	res := infer.Infer(good.Store, infer.Defaults())
	inferredProg, err := compiler.Compile(res.GenerateCPL())
	if err != nil {
		panic(err)
	}
	env := azuregen.ExpertEnv()
	for _, br := range branches {
		eng := engine.Engine{Store: br.Store, Env: env}
		expRep := eng.Run(expertProg)
		matched, unattr := azuregen.MatchReport(br.Injected, violKeys(expRep))
		expertReported, expertFP := classify(matched, "expert:")
		table6 = append(table6, ErrorRow{Branch: br.Name, Reported: expertReported,
			FalsePositives: expertFP, Unattributed: len(unattr)})

		infRep := eng.Run(inferredProg)
		matched, unattr = azuregen.MatchReport(br.Injected, violKeys(infRep))
		infReported, infFP := classifyNot(matched, "expert:")
		table7 = append(table7, ErrorRow{Branch: br.Name, Reported: infReported,
			FalsePositives: infFP, Unattributed: len(unattr)})
	}
	cfg.printf("Table 6: expert-written specifications on three configuration branches\n")
	cfg.printf("%-10s %15s %15s\n", "Branch", "Reported errors", "False positives")
	for _, r := range table6 {
		cfg.printf("%-10s %15d %15d\n", r.Branch, r.Reported, r.FalsePositives)
	}
	cfg.printf("\nTable 7: inferred specifications on three configuration branches\n")
	cfg.printf("%-10s %15s %15s\n", "Branch", "Reported errors", "False positives")
	for _, r := range table7 {
		cfg.printf("%-10s %15d %15d\n", r.Branch, r.Reported, r.FalsePositives)
	}
	return table6, table7
}

func violKeys(rep *report.Report) []string {
	seen := make(map[string]bool)
	var out []string
	for _, v := range rep.Violations {
		if !seen[v.Key] {
			seen[v.Key] = true
			out = append(out, v.Key)
		}
	}
	return out
}

// classify counts matched injections with the kind prefix; FPs are
// matched injections that are not true errors.
func classify(matched []azuregen.Injection, prefix string) (reported, fps int) {
	for _, m := range matched {
		if !strings.HasPrefix(m.Kind, prefix) {
			continue
		}
		reported++
		if !m.TrueError {
			fps++
		}
	}
	return reported, fps
}

func classifyNot(matched []azuregen.Injection, prefix string) (reported, fps int) {
	for _, m := range matched {
		if strings.HasPrefix(m.Kind, prefix) {
			continue
		}
		reported++
		if !m.TrueError {
			fps++
		}
	}
	return reported, fps
}

// ---- Table 8: validation latency ----

// Table8Row is one corpus's validation timing.
type Table8Row struct {
	Name       string
	Instances  int
	SpecCount  int
	SpecSource string
	Sequential time.Duration
	P10Min     time.Duration
	P10Median  time.Duration
	P10Max     time.Duration
}

// Table8 measures warm sequential validation time — one partition, the
// plan already lowered — and the per-partition times of a 10-way split,
// per corpus. Type A and C run inferred
// specifications; Type B runs the human-written suite — matching the
// paper's setup.
func Table8(cfg Config) []Table8Row {
	type workload struct {
		name   string
		store  *config.Store
		prog   *compiler.Program
		source string
		specs  int
	}
	var workloads []workload

	a := azuregen.GenerateA(cfg.ScaleA, cfg.Seed)
	aRes := infer.Infer(a.Store, infer.Defaults())
	aProg, err := compiler.Compile(aRes.GenerateCPL())
	if err != nil {
		panic(err)
	}
	workloads = append(workloads, workload{"Type A", a.Store, aProg, "Inferred, optimized", len(aProg.Specs)})

	b := azuregen.GenerateB(cfg.ScaleB, cfg.Seed)
	bProg, err := compiler.CompileWith(specs.AzureTypeB(), compiler.Options{})
	if err != nil {
		panic(err)
	}
	workloads = append(workloads, workload{"Type B", b.Store, bProg, "Human-written", len(bProg.Specs)})

	c := azuregen.GenerateC(cfg.ScaleC, cfg.Seed)
	cRes := infer.Infer(c.Store, infer.Defaults())
	cProg, err := compiler.Compile(cRes.GenerateCPL())
	if err != nil {
		panic(err)
	}
	workloads = append(workloads, workload{"Type C", c.Store, cProg, "Inferred", len(cProg.Specs)})

	cfg.printf("Table 8: validation latency (sequential and 10-way partitioned)\n")
	cfg.printf("%-8s %10s %6s %-20s %12s %10s %10s %10s\n",
		"Config.", "Instances", "Specs", "Source", "Sequential", "P10.Min", "P10.Median", "P10.Max")
	var rows []Table8Row
	for _, w := range workloads {
		eng := engine.Engine{Store: w.store, Env: simenv.NewSim(), Opts: engine.Options{Parallel: 1}}
		plan.For(w.prog) // lower outside the timer: the column is warm execution
		w.store.InvalidateCache()
		start := time.Now()
		eng.Run(w.prog)
		seq := time.Since(start)
		w.store.InvalidateCache()
		parts := eng.PartitionTimes(w.prog, 10)
		row := Table8Row{
			Name: w.name, Instances: w.store.Len(), SpecCount: w.specs, SpecSource: w.source,
			Sequential: seq,
			P10Min:     parts[0],
			P10Median:  parts[len(parts)/2],
			P10Max:     parts[len(parts)-1],
		}
		rows = append(rows, row)
		cfg.printf("%-8s %10d %6d %-20s %12v %10v %10v %10v\n",
			row.Name, row.Instances, row.SpecCount, row.SpecSource,
			row.Sequential.Round(time.Millisecond), row.P10Min.Round(time.Millisecond),
			row.P10Median.Round(time.Millisecond), row.P10Max.Round(time.Millisecond))
	}
	return rows
}

// ---- Table 9: inference latency ----

// Table9Row is one corpus's inference timing.
type Table9Row struct {
	Name      string
	Instances int
	Total     time.Duration
	Parsing   time.Duration
	Inference time.Duration
}

// Table9 measures the time to parse each corpus's native serialization
// into the unified representation versus the time to mine constraints —
// the paper's finding is that parsing dominates.
func Table9(cfg Config) []Table9Row {
	type job struct {
		name   string
		render func() (format string, data []byte)
	}
	jobs := []job{
		{"Type A", func() (string, []byte) {
			return "xml", azuregen.RenderXML(azuregen.GenerateA(cfg.ScaleA, cfg.Seed).Store)
		}},
		{"Type B", func() (string, []byte) {
			return "kv", azuregen.RenderKV(azuregen.GenerateB(cfg.ScaleB, cfg.Seed).Store)
		}},
		{"Type C", func() (string, []byte) {
			return "ini", azuregen.RenderINI(azuregen.GenerateC(cfg.ScaleC, cfg.Seed).Store)
		}},
	}
	cfg.printf("Table 9: inference latency (parsing vs mining)\n")
	cfg.printf("%-8s %10s %10s %10s %10s\n", "Config.", "Instances", "Total", "Parsing", "Inference")
	var rows []Table9Row
	for _, j := range jobs {
		format, data := j.render()
		st := config.NewStore()
		start := time.Now()
		if _, err := driver.LoadInto(st, format, data, "corpus", ""); err != nil {
			panic(err)
		}
		parse := time.Since(start)
		res := infer.Infer(st, infer.Defaults())
		row := Table9Row{Name: j.name, Instances: st.Len(),
			Total: parse + res.InferTime, Parsing: parse, Inference: res.InferTime}
		rows = append(rows, row)
		cfg.printf("%-8s %10d %10v %10v %10v\n", row.Name, row.Instances,
			row.Total.Round(time.Millisecond), row.Parsing.Round(time.Millisecond),
			row.Inference.Round(time.Millisecond))
	}
	return rows
}

// ---- Figure 4 ablation: compiler optimizations ----

// Figure4Result compares optimized vs unoptimized compilation of one
// suite over one store.
type Figure4Result struct {
	SpecsRaw, SpecsOptimized       int
	QueriesRaw, QueriesOptimized   int64
	DurationRaw, DurationOptimized time.Duration
	PredicatesAggregated           int
	DomainsAggregated              int
	ConstraintsOmitted             int
}

// Figure4 measures what the specification rewrites buy: fewer compiled
// specifications, fewer instance-discovery queries, less time. The input
// is the redundant one-statement-per-constraint form hand-written
// validation accumulates ("manually written validation code can contain
// inefficiencies", §5.2); the optimizer folds it back together.
func Figure4(cfg Config) Figure4Result {
	a := azuregen.GenerateA(cfg.ScaleA, cfg.Seed)
	res := infer.Infer(a.Store, infer.Defaults())
	src := res.GenerateVerboseCPL()

	raw, err := compiler.CompileWith(src, compiler.Options{})
	if err != nil {
		panic(err)
	}
	opt, err := compiler.CompileWith(src, compiler.Options{Optimize: true})
	if err != nil {
		panic(err)
	}
	run := func(prog *compiler.Program) (int64, time.Duration) {
		a.Store.InvalidateCache()
		a.Store.ResetStats()
		eng := engine.Engine{Store: a.Store, Env: simenv.NewSim()}
		start := time.Now()
		eng.Run(prog)
		return a.Store.Stats.Queries(), time.Since(start)
	}
	qRaw, dRaw := run(raw)
	qOpt, dOpt := run(opt)
	out := Figure4Result{
		SpecsRaw: len(raw.Specs), SpecsOptimized: len(opt.Specs),
		QueriesRaw: qRaw, QueriesOptimized: qOpt,
		DurationRaw: dRaw, DurationOptimized: dOpt,
		PredicatesAggregated: opt.Stats.PredicatesAggregated,
		DomainsAggregated:    opt.Stats.DomainsAggregated,
		ConstraintsOmitted:   opt.Stats.ConstraintsOmitted,
	}
	cfg.printf("Figure 4 ablation: CPL compiler optimizations (inferred Type A suite)\n")
	cfg.printf("%-28s %12s %12s\n", "", "unoptimized", "optimized")
	cfg.printf("%-28s %12d %12d\n", "compiled specifications", out.SpecsRaw, out.SpecsOptimized)
	cfg.printf("%-28s %12d %12d\n", "instance discovery queries", out.QueriesRaw, out.QueriesOptimized)
	cfg.printf("%-28s %12v %12v\n", "validation time",
		out.DurationRaw.Round(time.Millisecond), out.DurationOptimized.Round(time.Millisecond))
	cfg.printf("rewrites: %d predicate aggregations, %d domain aggregations, %d implied constraints omitted\n",
		out.PredicatesAggregated, out.DomainsAggregated, out.ConstraintsOmitted)
	return out
}

// ---- §6.3 inference accuracy ----

// AccuracyResult scores inferred constraints against the generator's
// declared ground truth.
type AccuracyResult struct {
	Total     int
	Correct   int
	Incorrect int
	// ByKind maps category -> [correct, incorrect].
	ByKind map[string][2]int
}

// Precision returns correct / total.
func (a AccuracyResult) Precision() float64 {
	if a.Total == 0 {
		return 0
	}
	return float64(a.Correct) / float64(a.Total)
}

// InferenceAccuracy reproduces the §6.3 manual-examination result ("the
// accuracy is around 80%"): it scores every inferred Type A constraint
// against azuregen's semantic ground truth. The trap archetypes model the
// paper's inaccuracy causes — ranges inferred from narrow samples,
// enumerations inferred from open vocabularies, coincidental uniqueness.
func InferenceAccuracy(cfg Config) AccuracyResult {
	c := azuregen.GenerateA(cfg.ScaleA, cfg.Seed)
	res := infer.Infer(c.Store, infer.Defaults())
	out := AccuracyResult{ByKind: make(map[string][2]int)}
	allowed := func(class, kind string) bool {
		arch := c.Archetypes[class]
		for _, k := range azuregen.GroundTruthKinds[arch] {
			if k == kind {
				return true
			}
		}
		return false
	}
	for _, con := range res.Constraints {
		kind := con.Kind.String()
		if kind == "Enum" {
			kind = "Range"
		}
		ok := allowed(con.Class, kind)
		if kind == "Equality" {
			for _, p := range con.Peers {
				ok = ok && allowed(p, "Equality")
			}
		}
		out.Total++
		e := out.ByKind[kind]
		if ok {
			out.Correct++
			e[0]++
		} else {
			out.Incorrect++
			e[1]++
		}
		out.ByKind[kind] = e
	}
	cfg.printf("Inference accuracy (§6.3): %d/%d constraints correct (%.0f%%; paper: ≈80%%)\n",
		out.Correct, out.Total, 100*out.Precision())
	kinds := make([]string, 0, len(out.ByKind))
	for k := range out.ByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		e := out.ByKind[k]
		cfg.printf("  %-12s %4d correct, %4d incorrect\n", k, e[0], e[1])
	}
	return out
}

// ---- §5.2 ablation: discovery data structures ----

// DiscoveryResult compares indexed+cached discovery with the naive scan.
type DiscoveryResult struct {
	Queries     int64
	IndexedTime time.Duration
	NaiveTime   time.Duration
	Speedup     float64
}

// Discovery measures the §5.2 instance-discovery optimization: the
// trie+cache implementation versus the initial scan-everything one, on
// the same validation run.
func Discovery(cfg Config) DiscoveryResult {
	a := azuregen.GenerateA(cfg.ScaleA, cfg.Seed)
	res := infer.Infer(a.Store, infer.Defaults())
	prog, err := compiler.Compile(res.GenerateCPL())
	if err != nil {
		panic(err)
	}
	// The ablation reproduces the paper's initial (pre-§5.2) discovery
	// implementation, so both runs use the AST interpreter: the plan
	// executor hoists per-element reference re-resolution and would
	// shrink the redundancy the trie+cache index is measured against.
	run := func(naive bool) time.Duration {
		a.Store.InvalidateCache()
		a.Store.ResetStats()
		start := time.Now()
		refeval.Run(context.Background(), a.Store.Snapshot(), prog, simenv.NewSim(), refeval.Options{NaiveDiscovery: naive})
		return time.Since(start)
	}
	indexed := run(false)
	queries := a.Store.Stats.Queries()
	naive := run(true)
	out := DiscoveryResult{
		Queries:     queries,
		IndexedTime: indexed,
		NaiveTime:   naive,
		Speedup:     float64(naive) / float64(indexed),
	}
	cfg.printf("Discovery ablation (§5.2): %d queries — naive %v vs trie+cache %v (%.1fx speedup)\n",
		out.Queries, out.NaiveTime.Round(time.Millisecond), out.IndexedTime.Round(time.Millisecond), out.Speedup)
	return out
}

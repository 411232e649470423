// Package report defines validation results: individual violations with
// automatically generated error messages (§4.4 of the paper) and the
// aggregate report with the constraint-grouped view practitioners use to
// triage inferred-specification noise (§6.3).
//
// A report records each spec's verdict as a section: the spec's
// execution position, the violations and spec errors it appended, and
// its contribution to the counters. Assemble builds every report made of
// others — the partitions of a parallel run, and an incremental run's
// splice of re-run verdicts into the previous report — by copying
// sections in execution order, so either reads exactly as one sequential
// run would.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// Severity ranks how serious a violation is; the validation policy assigns
// severities to specifications (§4.3).
type Severity int

// Severities, least to most severe.
const (
	Info Severity = iota
	Warning
	Error
	Critical
)

// String returns the lowercase severity name.
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	case Critical:
		return "critical"
	}
	return fmt.Sprintf("severity(%d)", int(s))
}

// ParseSeverity converts a policy string to a Severity.
func ParseSeverity(s string) (Severity, error) {
	switch s {
	case "info":
		return Info, nil
	case "warning":
		return Warning, nil
	case "error":
		return Error, nil
	case "critical":
		return Critical, nil
	}
	return Info, fmt.Errorf("report: unknown severity %q", s)
}

// Violation is one failed check: which specification, which configuration
// instance, and why.
type Violation struct {
	// Seq is the specification's position in program execution order,
	// the position of the section that holds the violation.
	Seq      int      `json:"-"`
	SpecID   int      `json:"spec_id"`
	Spec     string   `json:"spec"`    // CPL source of the specification
	Key      string   `json:"key"`     // fully-qualified instance key
	Value    string   `json:"value"`   // offending value
	Source   string   `json:"source"`  // file/endpoint provenance
	Message  string   `json:"message"` // auto-generated explanation
	Severity Severity `json:"severity"`
}

// String renders one violation line.
func (v Violation) String() string {
	return fmt.Sprintf("[%s] %s = %q: %s  (spec: %s)", v.Severity, v.Key, v.Value, v.Message, v.Spec)
}

// Report aggregates one validation run.
type Report struct {
	Violations       []Violation `json:"violations"`
	SpecsRun         int         `json:"specs_run"`
	SpecsFailed      int         `json:"specs_failed"`
	SpecErrors       []string    `json:"spec_errors,omitempty"` // specs that could not be evaluated
	InstancesChecked int         `json:"instances_checked"`
	// SpecsReused counts specs whose cached verdicts an incremental run
	// spliced in instead of re-executing; 0 on a full run.
	SpecsReused int           `json:"specs_reused,omitempty"`
	Duration    time.Duration `json:"duration_ns"`
	Stopped     bool          `json:"stopped"` // stop-on-first-violation policy fired
	// Interrupted marks a partial report: the run's context was canceled
	// (deadline, Ctrl-C) before every specification finished. Violations
	// found up to the interruption point are retained; specs that never
	// ran contribute nothing, and the spec being evaluated at cancellation
	// is rolled back rather than reported half-checked.
	Interrupted bool `json:"interrupted,omitempty"`

	// sections records each spec's verdict in the order the specs ran:
	// ascending execution positions, each section owning a contiguous
	// range of Violations and SpecErrors. Assemble builds reports from
	// them, and an incremental run splices them. Not serialized: a
	// report parsed back from JSON is not spliceable.
	sections []section
}

// SpecOutcome is one spec's contribution to a report's aggregate
// counters, recorded so an incremental run can reuse it without
// re-executing the spec.
type SpecOutcome struct {
	Instances int  // contribution to InstancesChecked
	Failed    bool // counted in SpecsFailed
	Errored   bool // produced SpecErrors entries (never Failed too)
}

// section is one spec's verdict: its execution position, the half-open
// ranges [v0, v1) of Violations and [e0, e1) of SpecErrors it appended,
// and its outcome.
type section struct {
	seq, v0, v1, e0, e1 int
	SpecOutcome
}

// CloseSection records the verdict of the spec at execution position
// seq: every violation and spec error appended since the previous
// section closed belongs to it. The plan executor and the reference
// interpreter call it once per completed spec, in ascending positions.
func (r *Report) CloseSection(seq int, o SpecOutcome) {
	v0, e0 := 0, 0
	if n := len(r.sections); n > 0 {
		v0, e0 = r.sections[n-1].v1, r.sections[n-1].e1
	}
	r.sections = append(r.sections, section{seq: seq, v0: v0, v1: len(r.Violations), e0: e0, e1: len(r.SpecErrors), SpecOutcome: o})
}

// Outcome returns the recorded verdict of the spec at execution position
// seq, and whether the report holds one.
func (r *Report) Outcome(seq int) (SpecOutcome, bool) {
	i := seq
	if i >= len(r.sections) || r.sections[i].seq != seq {
		i = sort.Search(len(r.sections), func(i int) bool { return r.sections[i].seq >= seq })
	}
	if i < len(r.sections) && r.sections[i].seq == seq {
		return r.sections[i].SpecOutcome, true
	}
	return SpecOutcome{}, false
}

// Spliceable reports whether the report's sections cover a program of
// nspecs specs, one section per position, and every violation and spec
// error in it — whether an incremental run can reuse its verdicts.
// Reports built through the engine always are unless the run was cut
// short; hand-built and wire-decoded reports are not.
func (r *Report) Spliceable(nspecs int) bool {
	if len(r.sections) != nspecs {
		return false
	}
	for i, s := range r.sections {
		if s.seq != i {
			return false
		}
	}
	v1, e1 := 0, 0
	if nspecs > 0 {
		v1, e1 = r.sections[nspecs-1].v1, r.sections[nspecs-1].e1
	}
	return v1 == len(r.Violations) && e1 == len(r.SpecErrors)
}

// Add appends a violation.
func (r *Report) Add(v Violation) { r.Violations = append(r.Violations, v) }

// AddSpecError records a spec that could not be evaluated.
func (r *Report) AddSpecError(msg string) { r.SpecErrors = append(r.SpecErrors, msg) }

// Passed reports whether the run found no violations and no broken specs.
func (r *Report) Passed() bool { return len(r.Violations) == 0 && len(r.SpecErrors) == 0 }

// Assemble builds one report from the sections of srcs: it walks
// execution positions in ascending order and copies each spec's section
// — its violations, spec errors and outcome — from the source that owns
// it, so the result lists verdicts exactly as one sequential run would.
// Where several sources hold a section for the same position, the last
// of them owns it: an incremental run passes the previous report first
// and the re-run subset after it. The counters are the sums over the
// copied sections, Stopped and Interrupted are those of any source, and
// SpecsReused and Duration are left for the caller. The parallel
// partitions of one run and an incremental splice both assemble here.
func Assemble(srcs ...*Report) *Report {
	out := &Report{}
	nv, ne, ns := 0, 0, 0
	for _, s := range srcs {
		nv, ne, ns = nv+len(s.Violations), ne+len(s.SpecErrors), ns+len(s.sections)
		out.Stopped = out.Stopped || s.Stopped
		out.Interrupted = out.Interrupted || s.Interrupted
	}
	if nv > 0 {
		out.Violations = make([]Violation, 0, nv)
	}
	if ne > 0 {
		out.SpecErrors = make([]string, 0, ne)
	}
	out.sections = make([]section, 0, ns)
	next := make([]int, len(srcs)) // each source's first section not yet walked past
	for {
		owner, seq := -1, 0
		for i, s := range srcs {
			if next[i] < len(s.sections) && (owner < 0 || s.sections[next[i]].seq <= seq) {
				owner, seq = i, s.sections[next[i]].seq
			}
		}
		if owner < 0 {
			// Nothing copied reads as nothing at all, as on a run
			// that found nothing.
			if len(out.Violations) == 0 {
				out.Violations = nil
			}
			if len(out.SpecErrors) == 0 {
				out.SpecErrors = nil
			}
			return out
		}
		src := srcs[owner]
		sec := src.sections[next[owner]]
		for i, s := range srcs {
			if next[i] < len(s.sections) && s.sections[next[i]].seq == seq {
				next[i]++
			}
		}
		out.Violations = append(out.Violations, src.Violations[sec.v0:sec.v1]...)
		out.SpecErrors = append(out.SpecErrors, src.SpecErrors[sec.e0:sec.e1]...)
		out.SpecsRun++
		out.InstancesChecked += sec.Instances
		if sec.Failed {
			out.SpecsFailed++
		}
		out.CloseSection(seq, sec.SpecOutcome)
	}
}

// Reset clears the report for reuse, retaining allocated capacity. The
// engine pools partition-local reports across runs; a recycled report
// must start indistinguishable from a zero value.
func (r *Report) Reset() {
	r.Violations = r.Violations[:0]
	r.SpecsRun = 0
	r.SpecsFailed = 0
	r.SpecErrors = r.SpecErrors[:0]
	r.InstancesChecked = 0
	r.SpecsReused = 0
	r.Duration = 0
	r.Stopped = false
	r.Interrupted = false
	r.sections = r.sections[:0]
}

// ConstraintGroup is the by-specification view of violations.
type ConstraintGroup struct {
	SpecID     int
	Spec       string
	Violations []Violation
}

// GroupByConstraint groups violations by specification, ordered by
// descending violation count. Practitioners inspect the top groups first:
// a constraint failed by many instances is likely a bad inferred
// specification rather than many real errors (§6.3).
func (r *Report) GroupByConstraint() []ConstraintGroup {
	byID := make(map[int]*ConstraintGroup)
	var order []int
	for _, v := range r.Violations {
		g, ok := byID[v.SpecID]
		if !ok {
			g = &ConstraintGroup{SpecID: v.SpecID, Spec: v.Spec}
			byID[v.SpecID] = g
			order = append(order, v.SpecID)
		}
		g.Violations = append(g.Violations, v)
	}
	out := make([]ConstraintGroup, 0, len(byID))
	for _, id := range order {
		out = append(out, *byID[id])
	}
	sort.SliceStable(out, func(i, j int) bool {
		return len(out[i].Violations) > len(out[j].Violations)
	})
	return out
}

// Render writes a human-readable report.
func (r *Report) Render(w io.Writer) error {
	if r.Interrupted {
		if _, err := fmt.Fprintf(w, "PARTIAL REPORT: the run was interrupted before all specifications finished\n"); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "validation: %d spec(s) run, %d failed, %d instance check(s), %d violation(s) in %v\n",
		r.SpecsRun, r.SpecsFailed, r.InstancesChecked, len(r.Violations), r.Duration.Round(time.Millisecond)); err != nil {
		return err
	}
	for _, g := range r.GroupByConstraint() {
		if _, err := fmt.Fprintf(w, "\n%d violation(s) of: %s\n", len(g.Violations), g.Spec); err != nil {
			return err
		}
		for _, v := range g.Violations {
			if _, err := fmt.Fprintf(w, "  %s = %q: %s\n", v.Key, v.Value, v.Message); err != nil {
				return err
			}
		}
	}
	for _, e := range r.SpecErrors {
		if _, err := fmt.Fprintf(w, "\nspec error: %s\n", e); err != nil {
			return err
		}
	}
	return nil
}

// JSON renders the report as indented JSON.
func (r *Report) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

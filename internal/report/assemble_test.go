package report

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// oracleReport is a report as it was before sections: spec errors tagged
// with their positions (errSeq) and per-spec outcomes in a map (perSpec).
// Its Merge, Clone and the splice loop in oracleSplice are the parallel
// merge and the incremental splice Assemble replaced, kept verbatim but
// for the receiver, as the oracle Assemble is held to.
type oracleReport struct {
	Report
	errSeq  []int
	perSpec map[int]SpecOutcome
}

func (r *oracleReport) NoteSpec(seq int, o SpecOutcome) {
	if r.perSpec == nil {
		r.perSpec = make(map[int]SpecOutcome)
	}
	r.perSpec[seq] = o
}

func (r *oracleReport) Outcome(seq int) (SpecOutcome, bool) {
	o, ok := r.perSpec[seq]
	return o, ok
}

func (r *oracleReport) ViolationsFor(seq int) []Violation {
	var out []Violation
	for _, v := range r.Violations {
		if v.Seq == seq {
			out = append(out, v)
		}
	}
	return out
}

func (r *oracleReport) ErrorsFor(seq int) []string {
	var out []string
	for i, s := range r.errSeq {
		if s == seq {
			out = append(out, r.SpecErrors[i])
		}
	}
	return out
}

func (r *oracleReport) Tagged() bool { return len(r.errSeq) == len(r.SpecErrors) }

func (r *oracleReport) AddSpecError(seq int, msg string) {
	r.SpecErrors = append(r.SpecErrors, msg)
	r.errSeq = append(r.errSeq, seq)
}

func (r *oracleReport) Merge(o *oracleReport) {
	r.Violations = mergeViolations(r.Violations, o.Violations)
	r.SpecsRun += o.SpecsRun
	r.SpecsFailed += o.SpecsFailed
	r.SpecErrors, r.errSeq = mergeSpecErrors(r.SpecErrors, r.errSeq, o.SpecErrors, o.errSeq)
	r.InstancesChecked += o.InstancesChecked
	r.SpecsReused += o.SpecsReused
	if o.Duration > r.Duration {
		r.Duration = o.Duration // parallel wall clock is the max partition time
	}
	r.Stopped = r.Stopped || o.Stopped
	r.Interrupted = r.Interrupted || o.Interrupted
	if len(o.perSpec) > 0 {
		if r.perSpec == nil {
			r.perSpec = make(map[int]SpecOutcome, len(o.perSpec))
		}
		for seq, so := range o.perSpec {
			r.perSpec[seq] = so
		}
	}
}

func mergeViolations(a, b []Violation) []Violation {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return append(a, b...)
	}
	if !seqSorted(a) || !seqSorted(b) {
		out := append(a, b...)
		sort.SliceStable(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
		return out
	}
	out := make([]Violation, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].Seq <= b[j].Seq {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

func seqSorted(vs []Violation) bool {
	for i := 1; i < len(vs); i++ {
		if vs[i].Seq < vs[i-1].Seq {
			return false
		}
	}
	return true
}

func mergeSpecErrors(ae []string, aseq []int, be []string, bseq []int) ([]string, []int) {
	aTagged, bTagged := len(aseq) == len(ae), len(bseq) == len(be)
	if aTagged && bTagged && intsSorted(aseq) && intsSorted(bseq) {
		if len(be) == 0 {
			return ae, aseq
		}
		if len(ae) == 0 {
			return append(ae, be...), append(aseq, bseq...)
		}
		errs := make([]string, 0, len(ae)+len(be))
		seqs := make([]int, 0, len(aseq)+len(bseq))
		i, j := 0, 0
		for i < len(ae) && j < len(be) {
			if aseq[i] <= bseq[j] {
				errs, seqs = append(errs, ae[i]), append(seqs, aseq[i])
				i++
			} else {
				errs, seqs = append(errs, be[j]), append(seqs, bseq[j])
				j++
			}
		}
		errs = append(errs, ae[i:]...)
		seqs = append(seqs, aseq[i:]...)
		errs = append(errs, be[j:]...)
		seqs = append(seqs, bseq[j:]...)
		return errs, seqs
	}
	errs := append(ae, be...)
	seqs := append(aseq, bseq...)
	if len(seqs) == len(errs) && len(seqs) > 1 {
		idx := make([]int, len(errs))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return seqs[idx[a]] < seqs[idx[b]] })
		oe := make([]string, len(idx))
		os := make([]int, len(idx))
		for i, j := range idx {
			oe[i], os[i] = errs[j], seqs[j]
		}
		return oe, os
	}
	return errs, seqs
}

func intsSorted(xs []int) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i] < xs[i-1] {
			return false
		}
	}
	return true
}

func (r *oracleReport) Clone() *oracleReport {
	c := *r
	if r.Violations != nil {
		c.Violations = append([]Violation(nil), r.Violations...)
	}
	if r.SpecErrors != nil {
		c.SpecErrors = append([]string(nil), r.SpecErrors...)
	}
	if r.errSeq != nil {
		c.errSeq = append([]int(nil), r.errSeq...)
	}
	if r.perSpec != nil {
		c.perSpec = make(map[int]SpecOutcome, len(r.perSpec))
		for seq, o := range r.perSpec {
			c.perSpec[seq] = o
		}
	}
	return &c
}

// oracleSplice is the incremental splice's loop: each spec's verdicts
// from fresh where it re-ran, from prevRep otherwise; with nothing
// re-run, a clone of prevRep.
func oracleSplice(nspecs int, rerun []int, prevRep, fresh *oracleReport) *oracleReport {
	if len(rerun) == 0 {
		out := prevRep.Clone()
		out.SpecsReused = nspecs
		return out
	}
	out := &oracleReport{Report: Report{SpecsReused: nspecs - len(rerun)}}
	for seq, next := 0, 0; seq < nspecs; seq++ {
		src := prevRep
		if next < len(rerun) && rerun[next] == seq {
			src = fresh
			next++
		}
		o, _ := src.Outcome(seq)
		out.SpecsRun++
		out.InstancesChecked += o.Instances
		if o.Failed {
			out.SpecsFailed++
		}
		out.Violations = append(out.Violations, src.ViolationsFor(seq)...)
		for _, msg := range src.ErrorsFor(seq) {
			out.AddSpecError(seq, msg)
		}
		out.NoteSpec(seq, o)
	}
	return out
}

// oracleMerge folds partition reports the way the engine's runParts did.
func oracleMerge(parts []*oracleReport) *oracleReport {
	out := &oracleReport{}
	for _, p := range parts {
		out.Merge(p)
	}
	return out
}

// oracleSpliceable is what the incremental run required of a previous
// report before sections: tagged errors and a verdict for every spec.
func oracleSpliceable(r *oracleReport, nspecs int) bool {
	if !r.Tagged() {
		return false
	}
	for seq := 0; seq < nspecs; seq++ {
		if _, ok := r.Outcome(seq); !ok {
			return false
		}
	}
	return true
}

// verdict is one spec's result as a run would append it.
type verdict struct {
	violations int
	err        int // 0: none, 1: an evaluation error, 2: a contained panic
	instances  int
}

// runPair is one partition's report built twice, with sections and
// with the oracle's tags, by the same appends.
type runPair struct {
	r *Report
	o *oracleReport
}

func newRunPair() runPair { return runPair{&Report{}, &oracleReport{}} }

// spec appends one spec's verdict to both reports the way the plan
// executor does: a contained panic rolls its partial violations and
// instance count back, an evaluation error keeps them.
func (p runPair) spec(seq int, v verdict, tag string, stopOnFirst bool) {
	for _, r := range []*Report{p.r, &p.o.Report} {
		r.SpecsRun++
		before, instBefore := len(r.Violations), r.InstancesChecked
		for k := 0; k < v.violations; k++ {
			r.Add(Violation{Seq: seq, SpecID: seq + 1, Spec: fmt.Sprintf("spec %d", seq),
				Key: fmt.Sprintf("%s.%d.%d", tag, seq, k), Value: tag, Message: "bad " + tag})
		}
		r.InstancesChecked += v.instances
		o := SpecOutcome{}
		switch {
		case v.err != 0:
			if v.err == 2 {
				r.Violations = r.Violations[:before]
				r.InstancesChecked = instBefore
			}
			msg := fmt.Sprintf("spec %d: %s error %d", seq, tag, v.err)
			if r == p.r {
				r.AddSpecError(msg)
			} else {
				p.o.AddSpecError(seq, msg)
			}
			o = SpecOutcome{Instances: r.InstancesChecked - instBefore, Errored: true}
		default:
			failed := len(r.Violations) > before
			if failed {
				r.SpecsFailed++
				r.Stopped = r.Stopped || stopOnFirst
			}
			o = SpecOutcome{Instances: r.InstancesChecked - instBefore, Failed: failed}
		}
		if r == p.r {
			r.CloseSection(seq, o)
		} else {
			p.o.NoteSpec(seq, o)
		}
	}
}

// interrupt marks both reports cut short.
func (p runPair) interrupt() { p.r.Interrupted, p.o.Interrupted = true, true }

// byteSource hands out a fuzz input's bytes one decision at a time,
// zeros once it runs dry.
type byteSource []byte

func (b *byteSource) next() int {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return int(c)
}

func (b *byteSource) verdict() verdict {
	c := b.next()
	v := verdict{violations: c % 4, instances: c % 7}
	if c%16 == 15 {
		v.violations = 12 + c%5
	}
	switch c / 64 {
	case 1:
		v.err = 1
	case 2:
		v.err = 2
	}
	return v
}

// partitioned runs the specs at positions idxs (ascending) dealt over
// nparts partitions by the input, cutting each partition short when the
// input says so (interrupts), as one parallel run of the engine would.
func partitioned(b *byteSource, idxs []int, nparts int, tag string, interrupts, stopOnFirst bool) []runPair {
	lists := make([][]int, nparts)
	for _, seq := range idxs {
		k := b.next() % nparts
		lists[k] = append(lists[k], seq)
	}
	parts := make([]runPair, nparts)
	for k, list := range lists {
		parts[k] = newRunPair()
		cut := len(list)
		// A cut-short partition lost at least one spec: the run stops
		// before a spec or rolls the one in flight back.
		if c := b.next(); interrupts && c%4 == 0 && len(list) > 0 {
			cut = (c / 4) % len(list)
			parts[k].interrupt()
		}
		for _, seq := range list[:cut] {
			parts[k].spec(seq, b.verdict(), tag, stopOnFirst)
		}
	}
	return parts
}

func split(parts []runPair) ([]*Report, []*oracleReport) {
	rs, os := make([]*Report, len(parts)), make([]*oracleReport, len(parts))
	for i, p := range parts {
		rs[i], os[i] = p.r, p.o
	}
	return rs, os
}

// wireJSON is a report's wire encoding, plus each violation's position,
// which the wire does not carry.
func wireJSON(t testing.TB, r *Report) string {
	t.Helper()
	b, err := r.EncodeWire()
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([]int, len(r.Violations))
	for i, v := range r.Violations {
		seqs[i] = v.Seq
	}
	return fmt.Sprintf("%s seqs=%v", b, seqs)
}

// sameAs fails unless got matches the oracle's report: counters, flags,
// wire encoding and whether a later incremental run could splice it.
func sameAs(t testing.TB, what string, nspecs int, got *Report, want *oracleReport) {
	t.Helper()
	g, w := *got, want.Report
	g.Duration, w.Duration = 0, 0
	if gj, wj := wireJSON(t, &g), wireJSON(t, &w); gj != wj {
		t.Fatalf("%s: report differs from the oracle\n got: %s\nwant: %s", what, gj, wj)
	}
	if gs, ws := got.Spliceable(nspecs), oracleSpliceable(want, nspecs) && !want.Interrupted; gs != ws {
		t.Fatalf("%s: spliceable = %t, oracle %t", what, gs, ws)
	}
	for seq := 0; seq < nspecs; seq++ {
		g, gok := got.Outcome(seq)
		w, wok := want.Outcome(seq)
		if g != w || gok != wok {
			t.Fatalf("%s: spec %d outcome %+v/%t, oracle %+v/%t", what, seq, g, gok, w, wok)
		}
	}
}

// checkAssemble decodes one fuzz input into a parallel run — 1 to 8
// partitions, some cut short, with failing, erroring, panicking and
// clean specs — and, when the run is whole, an incremental round over
// it, and holds Assemble to the oracle's merge and splice.
func checkAssemble(t testing.TB, data []byte) {
	b := byteSource(data)
	nparts := 1 + b.next()%8
	nspecs := b.next() % 48
	stop := b.next()%8 == 0
	all := make([]int, nspecs)
	for i := range all {
		all[i] = i
	}

	// The parallel merge, interruptions allowed.
	rs, os := split(partitioned(&b, all, nparts, "run", true, stop))
	sameAs(t, "merge", nspecs, Assemble(rs...), oracleMerge(os))

	// An incremental round: a whole previous run, a re-run subset run
	// in its own partitions, and the splice of the two.
	rs, os = split(partitioned(&b, all, nparts, "prev", false, false))
	prev, prevO := Assemble(rs...), oracleMerge(os)
	sameAs(t, "previous run", nspecs, prev, prevO)
	var rerun []int
	for _, seq := range all {
		if b.next()%3 == 0 {
			rerun = append(rerun, seq)
		}
	}
	freshParts := 1 + b.next()%min(nparts, max(len(rerun), 1))
	rs, os = split(partitioned(&b, rerun, freshParts, "fresh", false, false))
	fresh, freshO := rs[0], oracleMerge(os)
	if len(rs) > 1 {
		fresh = Assemble(rs...)
	}
	got := Assemble(prev, fresh)
	got.SpecsReused = nspecs - len(rerun)
	sameAs(t, fmt.Sprintf("splice of %v", rerun), nspecs, got, oracleSplice(nspecs, rerun, prevO, freshO))
}

// The fuzzer's corpus seeds, also run as a plain test.
var assembleSeeds = [][]byte{
	nil,
	{0, 5},
	{3, 20, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23},
	{7, 40, 8, 0xff, 0x7f, 0x3f, 0x0f, 0x40, 0x80, 0xc0, 0x4f, 0x8f, 1, 2, 3, 4},
	{1, 30, 0, 64, 128, 15, 31, 47, 63, 79, 95, 111, 127, 143, 159, 175, 191},
}

func FuzzAssemble(f *testing.F) {
	for _, s := range assembleSeeds {
		f.Add(s)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		s := make([]byte, 64+rng.Intn(192))
		rng.Read(s)
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkAssemble(t, data) })
}

// Assembling engine-shaped partition reports reproduces the old merge
// exactly — same violation order, same error order, same counters — for
// any partitioning and any interruption.
func TestMergeMatchesReference(t *testing.T) {
	for _, s := range assembleSeeds {
		checkAssemble(t, s)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		s := make([]byte, 32+rng.Intn(224))
		rng.Read(s)
		checkAssemble(t, s)
	}
}

// Where two sources hold a section for one position, the later owns it:
// an incremental run's re-run verdicts replace the previous ones.
func TestAssembleLastSourceOwns(t *testing.T) {
	prev := &Report{}
	prev.Add(Violation{Seq: 0, Key: "prev0"})
	prev.CloseSection(0, SpecOutcome{Instances: 1, Failed: true})
	prev.Add(Violation{Seq: 1, Key: "prev1"})
	prev.CloseSection(1, SpecOutcome{Instances: 2, Failed: true})
	fresh := &Report{}
	fresh.AddSpecError("spec 1: broken")
	fresh.CloseSection(1, SpecOutcome{Instances: 3, Errored: true})
	got := Assemble(prev, fresh)
	if len(got.Violations) != 1 || got.Violations[0].Key != "prev0" || fmt.Sprint(got.SpecErrors) != "[spec 1: broken]" {
		t.Fatalf("violations %+v, errors %v; want prev's spec 0 and fresh's spec 1", got.Violations, got.SpecErrors)
	}
	if got.SpecsRun != 2 || got.SpecsFailed != 1 || got.InstancesChecked != 4 {
		t.Errorf("counters run=%d failed=%d instances=%d, want 2, 1, 4", got.SpecsRun, got.SpecsFailed, got.InstancesChecked)
	}
}

// A report is spliceable only when its sections cover the program and
// every violation and spec error in it: a hand-appended error, a missing
// spec or a decoded wire report all run in full.
func TestSpliceableNeedsSections(t *testing.T) {
	r := &Report{}
	r.Add(Violation{Seq: 0, Key: "k"})
	r.CloseSection(0, SpecOutcome{Instances: 1, Failed: true})
	r.CloseSection(1, SpecOutcome{})
	if !r.Spliceable(2) || r.Spliceable(3) || r.Spliceable(1) {
		t.Fatalf("Spliceable(1, 2, 3) = %t, %t, %t; want false, true, false", r.Spliceable(1), r.Spliceable(2), r.Spliceable(3))
	}
	r.SpecErrors = append(r.SpecErrors, "hand-appended")
	if r.Spliceable(2) {
		t.Error("an error outside every section left the report spliceable")
	}
	if !(&Report{}).Spliceable(0) || (&Report{SpecErrors: []string{"z"}}).Spliceable(0) {
		t.Error("empty-program reports: want only the empty one spliceable")
	}
	b, err := r.EncodeWire()
	if err != nil {
		t.Fatal(err)
	}
	w, err := DecodeWire(b)
	if err != nil {
		t.Fatal(err)
	}
	if w.Report().Spliceable(2) {
		t.Error("a decoded wire report claims to be spliceable")
	}
}

// Assembling one report clones it (the all-reused splice does exactly
// that): mutating the clone leaves its source as it was, and the clone is
// itself spliceable by the next round.
func TestCloneIsDeepAndSpliceable(t *testing.T) {
	r := &Report{}
	r.Add(Violation{Seq: 0, SpecID: 0, Key: "a.b", Value: "9"})
	r.CloseSection(0, SpecOutcome{Instances: 5, Failed: true})
	r.AddSpecError("boom")
	r.CloseSection(1, SpecOutcome{Instances: 2, Errored: true})
	r.SpecsRun, r.SpecsFailed, r.InstancesChecked = 2, 1, 7

	c := Assemble(r)
	if !reflect.DeepEqual(r.Violations, c.Violations) || !reflect.DeepEqual(r.SpecErrors, c.SpecErrors) ||
		c.SpecsRun != 2 || c.SpecsFailed != 1 || c.InstancesChecked != 7 {
		t.Fatalf("copy differs: %+v", c)
	}
	if !c.Spliceable(2) {
		t.Error("copy is not spliceable")
	}
	if o, ok := c.Outcome(0); !ok || !o.Failed || o.Instances != 5 {
		t.Errorf("copy lost per-spec accounting: %+v, %t", o, ok)
	}

	c.Violations[0].Value = "changed"
	c.Add(Violation{Seq: 2})
	c.SpecErrors[0] = "changed"
	c.CloseSection(2, SpecOutcome{Instances: 99})
	if r.Violations[0].Value != "9" || len(r.Violations) != 1 || r.SpecErrors[0] != "boom" || !r.Spliceable(2) {
		t.Error("mutating the copy reached its source")
	}
}

// Cloning nothing, or an empty report, gives the zero report.
func TestCloneZeroValue(t *testing.T) {
	for _, z := range []*Report{Assemble(), Assemble(&Report{}), Assemble(&Report{Violations: []Violation{}, SpecErrors: []string{}})} {
		if !reflect.DeepEqual(*z, Report{sections: []section{}}) {
			t.Errorf("assembled nothing = %+v, want the zero report", z)
		}
	}
}

// Reset must return a pooled report to a state indistinguishable from a
// zero value, while the engine's pool relies on capacity being kept.
func TestReset(t *testing.T) {
	r := &Report{}
	r.Add(Violation{Seq: 1, Key: "k"})
	r.AddSpecError("boom")
	r.CloseSection(1, SpecOutcome{Instances: 4, Failed: true})
	r.SpecsRun, r.SpecsFailed, r.InstancesChecked, r.SpecsReused = 3, 1, 9, 2
	r.Duration, r.Stopped, r.Interrupted = time.Second, true, true
	r.Reset()

	// Reset keeps slice capacity for reuse, so empty-but-non-nil slices
	// are expected; the baseline mirrors that.
	zero, err := (&Report{Violations: []Violation{}, SpecErrors: []string{}}).JSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(zero) {
		t.Errorf("reset report differs from zero value:\n got: %s\nzero: %s", got, zero)
	}
	if _, ok := r.Outcome(1); ok {
		t.Error("per-spec accounting survived Reset")
	}
	if !r.Passed() || !r.Spliceable(0) {
		t.Error("reset report behaves differently from zero value")
	}
}

// A partial (Interrupted) report must round-trip the wire unchanged:
// the flag, the truncated counters, and the violations found before the
// interruption all survive encode/decode/reconstruct.
func TestWirePartialReportRoundTrip(t *testing.T) {
	r := &Report{SpecsRun: 3, SpecsFailed: 1, InstancesChecked: 17, Interrupted: true}
	r.Add(Violation{Seq: 0, SpecID: 0, Spec: "$A -> int", Key: "A[1]", Value: "x", Message: "not an int", Severity: Error})
	r.AddSpecError("spec 2: plug-in panicked")

	b, err := r.EncodeWire()
	if err != nil {
		t.Fatal(err)
	}
	w, err := DecodeWire(b)
	if err != nil {
		t.Fatal(err)
	}
	back := w.Report()
	if !back.Interrupted {
		t.Error("Interrupted flag lost on the wire")
	}
	if back.SpecsRun != 3 || back.SpecsFailed != 1 || back.InstancesChecked != 17 {
		t.Errorf("partial counters drifted: %+v", back)
	}
	if len(back.Violations) != 1 || back.Violations[0].Key != "A[1]" {
		t.Errorf("violations drifted: %+v", back.Violations)
	}
	if len(back.SpecErrors) != 1 {
		t.Errorf("spec errors drifted: %v", back.SpecErrors)
	}
	b2, err := back.EncodeWire()
	if err != nil {
		t.Fatal(err)
	}
	if string(b2) != string(b) {
		t.Errorf("partial report wire round trip drifted:\n first: %s\nsecond: %s", b, b2)
	}
}

// BenchmarkAssemble times the two assemblies a run makes: folding eight
// partitions of a 4,000-spec run, and splicing a one-spec re-run into
// the whole previous report. Both are linear in what they copy; run with
// -benchmem.
func BenchmarkAssemble(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const parts, specs = 8, 4000
	data := make([]byte, 2+3*specs)
	rng.Read(data)
	data[0], data[1] = parts-1, 0
	src := byteSource(data[2:])
	all := make([]int, specs)
	for i := range all {
		all[i] = i
	}
	reps, _ := split(partitioned(&src, all, parts, "run", false, false))
	b.Run("merge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Assemble(reps...)
		}
	})
	prev := Assemble(reps...)
	fresh := newRunPair()
	fresh.spec(specs/2, verdict{violations: 2, instances: 3}, "fresh", false)
	b.Run("splice", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Assemble(prev, fresh.r)
		}
	})
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"confvalley/internal/azuregen"
	"confvalley/internal/compiler"
	"confvalley/internal/config"
	"confvalley/internal/engine"
	"confvalley/internal/infer"
	"confvalley/internal/report"
	"confvalley/internal/runner"
	"confvalley/internal/serve"
	"confvalley/internal/simenv"
	"confvalley/specs"
)

// sizes fixes the scale of every workload. The command always runs
// fullSizes; only the tests shrink them, so no flag sizes a workload.
type sizes struct {
	typeA          float64 // azuregen Type A scale; 1.0 is the paper's 1,391 classes
	expertClusters int     // clusters in the expert substrate
	typeB          float64 // azuregen Type B scale; 1.0 is the paper's 2.3M instances
}

var fullSizes = sizes{typeA: 1.0, expertClusters: 200, typeB: 0.05}

// Injected error counts, and the seed at which the sizes in README.md
// are asserted exactly. Other seeds are gated relationally.
const (
	injectedA      = 30
	injectedExpert = 12
	injectedB      = 16
	pinnedSeed     = 2015
)

// Names a service request is sent under.
const (
	tenantName  = "bench"
	specName    = "suite"
	payloadName = "corpus.xml"
)

// inputs is everything one run derives from --seed, before any clock
// starts: the specification, the request bodies or the CLI's data file,
// and for each the answer the reference implementation gives.
type inputs struct {
	workload string
	spec     string
	env      simenv.Env

	// Service workloads. The client walks bodies round-robin; with novel
	// set it stamps a fresh nonce into the body before every send, so no
	// cache layer has seen the bytes. reused is the specs_reused every
	// response after a lineage's first must carry.
	bodies []*requestBody
	novel  bool
	reused int
	nonce  uint64 // last nonce stamped; no body repeats within a run

	// CLI workload: the data file's bytes and the rendered report, its
	// duration masked.
	kv       []byte
	wantText []byte

	truth groundTruth
}

// groundTruth is what the reference run saw; the pinned-seed assertions
// and the per-layer counts are checked against it.
type groundTruth struct {
	Classes     int `json:"classes"`
	Instances   int `json:"instances"`
	Constraints int `json:"constraints"` // inferred, before compilation; 0 for hand-written suites
	Specs       int `json:"specs"`       // compiled
	Checked     int `json:"instances_checked"`
	Violations  int `json:"violations"`
	Injected    int `json:"injected"`
	PayloadLen  int `json:"payload_bytes"`
	BodyLen     int `json:"body_bytes"`
}

// requestBody is one encoded validate request. The nonce is the value
// of a setting no specification reads, so stamping it changes every
// content address and no verdict.
type requestBody struct {
	buf      []byte
	nonceOff int
	want     []byte // canonical expected response; see canonical
}

const nonceDigits = 10

var (
	nonceKey    = config.Key{Segs: []config.Seg{{Name: "BenchRun"}, {Name: "Nonce"}}}
	nonceZero   = strings.Repeat("0", nonceDigits)
	nonceMarker = []byte(`Key=\"Nonce\" Value=\"` + nonceZero + `\"`)
)

// body returns the i-th request's body: the templates in rotation,
// freshly stamped on the novel workloads. The client owns the buffer and
// sends one request at a time, so it is patched in place.
func (in *inputs) body(i int) *requestBody {
	rb := in.bodies[i%len(in.bodies)]
	if in.novel {
		in.nonce++
		rb.stamp(in.nonce)
	}
	return rb
}

func (rb *requestBody) stamp(n uint64) {
	d := rb.buf[rb.nonceOff : rb.nonceOff+nonceDigits]
	for i := nonceDigits - 1; i >= 0; i-- {
		d[i] = byte('0' + n%10)
		n /= 10
	}
}

// buildInputs makes one workload's inputs and runs its set-up gates. An
// error means the benchmark itself is broken: the caller exits non-zero
// without a result line.
func buildInputs(workload string, seed int64, sz sizes) (*inputs, error) {
	switch workload {
	case "novel_xml", "repeat_hit":
		return typeAInputs(workload, seed, sz)
	case "expert_eval":
		return expertInputs(seed, sz)
	case "cli_kv_b":
		return typeBInputs(seed, sz)
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}

// typeAInputs: the inferred suite over a full Type A corpus as nested
// XML. novel_xml stamps every body; repeat_hit sends the same bytes.
func typeAInputs(workload string, seed int64, sz sizes) (*inputs, error) {
	good := azuregen.GenerateA(sz.typeA, seed)
	inf := infer.Infer(good.Store, infer.Defaults())
	in := &inputs{workload: workload, spec: inf.GenerateCPL(), env: azuregen.ExpertEnv(), novel: workload == "novel_xml"}

	bad := azuregen.GenerateA(sz.typeA, seed)
	injected := azuregen.InjectInferredErrors(bad, injectedA, 0, seed+1)
	own, err := in.groundTruth(bad.Store, injected)
	if err != nil {
		return nil, err
	}
	if err := in.addBody(bad.Store.Instances(), own); err != nil {
		return nil, err
	}
	in.truth.Classes, in.truth.Constraints = bad.Classes, len(inf.Constraints)
	if in.novel {
		// The nonce is the only changed key and no footprint covers it.
		in.reused = in.truth.Specs
	}
	if seed == pinnedSeed && sz == fullSizes {
		want := in.truth
		want.Classes, want.Instances, want.Constraints, want.Specs = 1391, 67038, 2934, 341
		want.Checked, want.Violations = 64150, injectedA
		if in.truth != want {
			return nil, fmt.Errorf("%s: pinned sizes moved: got %+v, want %+v", workload, in.truth, want)
		}
	}
	return in, nil
}

// expertInputs: the hand-written Type A suite over the expert substrate,
// as two copies whose cluster names differ so that consecutive requests
// share no key and the incremental splice reuses nothing.
func expertInputs(seed int64, sz sizes) (*inputs, error) {
	st := config.NewStore()
	azuregen.AddExpertSubstrate(st, sz.expertClusters, seed)
	injected := azuregen.InjectExpertErrors(st, sz.expertClusters, injectedExpert, seed+1)
	in := &inputs{workload: "expert_eval", spec: specs.AzureTypeA(), env: azuregen.ExpertEnv(), novel: true}
	own, err := in.groundTruth(st, injected)
	if err != nil {
		return nil, err
	}
	for _, prefix := range []string{"a-", "b-"} {
		renamed := make([]*config.Instance, 0, st.Len())
		for _, orig := range st.Instances() {
			cp := *orig
			cp.Key.Segs = append([]config.Seg(nil), orig.Key.Segs...)
			cp.Key.Segs[0].Inst = prefix + cp.Key.Segs[0].Inst
			renamed = append(renamed, &cp)
		}
		if err := in.addBody(renamed, own); err != nil {
			return nil, err
		}
	}
	in.truth.Classes = len(st.Classes())
	if seed == pinnedSeed && sz == fullSizes {
		want := in.truth
		want.Instances, want.Specs, want.Violations = 4800, 13, injectedExpert
		if in.truth != want {
			return nil, fmt.Errorf("expert_eval: pinned sizes moved: got %+v, want %+v", in.truth, want)
		}
	}
	return in, nil
}

// typeBInputs: the hand-written Type B suite over a KV file, with
// range and duplicate errors injected here (azuregen has no Type B
// injector): half push an int-range parameter far out of range, half
// copy the first node's unique address onto a later node.
func typeBInputs(seed int64, sz sizes) (*inputs, error) {
	c := azuregen.GenerateB(sz.typeB, seed)
	r := rand.New(rand.NewSource(seed + 1))
	var ranged, unique []int // class ordinals the suite covers, by check kind
	for ci := 0; ci < 62; ci++ {
		switch k := ci % 10; {
		case k >= 3 && k < 6:
			ranged = append(ranged, ci)
		case k >= 6 && k < 8:
			unique = append(unique, ci)
		}
	}
	r.Shuffle(len(ranged), func(i, j int) { ranged[i], ranged[j] = ranged[j], ranged[i] })
	r.Shuffle(len(unique), func(i, j int) { unique[i], unique[j] = unique[j], unique[i] })
	classes := c.Store.Classes()
	var injected []azuregen.Injection
	for e := 0; e < injectedB; e++ {
		pick, val := ranged, func([]*config.Instance) string { return "99999" }
		if e%2 == 1 {
			pick, val = unique, func(ins []*config.Instance) string { return ins[0].Value }
		}
		ins := c.Store.ClassInstances(classes[pick[e/2]])
		target := ins[1+r.Intn(len(ins)-1)]
		inj := azuregen.Injection{Key: target.Key.String(), OldValue: target.Value, NewValue: val(ins), TrueError: true}
		target.Value = inj.NewValue
		injected = append(injected, inj)
	}
	c.Store.InvalidateCache()

	in := &inputs{workload: "cli_kv_b", spec: specs.AzureTypeB(), env: simenv.NewSim(), kv: azuregen.RenderKV(c.Store)}
	own, err := in.groundTruth(c.Store, injected)
	if err != nil {
		return nil, err
	}
	ref, err := in.reference(runner.Payload{Name: "typeb.kv", Format: "kv", Data: in.kv}, own)
	if err != nil {
		return nil, err
	}
	var text bytes.Buffer
	if err := ref.Report.Render(&text); err != nil {
		return nil, err
	}
	in.wantText = maskDuration(text.Bytes())
	in.truth.Classes, in.truth.Instances, in.truth.PayloadLen = c.Classes, ref.Data.Instances(), len(in.kv)
	if seed == pinnedSeed && sz == fullSizes {
		want := in.truth
		want.Instances, want.Specs, want.Violations = 115344, 13, injectedB
		if in.truth != want {
			return nil, fmt.Errorf("cli_kv_b: pinned sizes moved: got %+v, want %+v", in.truth, want)
		}
	}
	return in, nil
}

// groundTruth runs the suite with the interpreter over the generator's
// own store and checks that every injected error is reported. The
// report is what each rendered payload must reproduce.
func (in *inputs) groundTruth(st *config.Store, injected []azuregen.Injection) (*report.Report, error) {
	prog, err := compiler.Compile(in.spec)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", in.workload, err)
	}
	eng := engine.Engine{Store: st, Env: in.env, Opts: engine.Options{Interpret: true, Parallel: 1}}
	own := eng.Run(prog)
	keys := make([]string, len(own.Violations))
	for i, v := range own.Violations {
		keys[i] = v.Key
	}
	if matched, _ := azuregen.MatchReport(injected, keys); len(matched) != len(injected) {
		return nil, fmt.Errorf("%s: %d of %d injected errors reported", in.workload, len(matched), len(injected))
	}
	in.truth.Injected = len(injected)
	return own, nil
}

// addBody renders instances (plus the nonce setting) as nested XML,
// takes the reference answer for it, and appends the encoded request.
func (in *inputs) addBody(ins []*config.Instance, own *report.Report) error {
	withNonce := append([]*config.Instance{{Key: nonceKey, Value: nonceZero}}, ins...)
	doc := renderXML(withNonce)
	ref, err := in.reference(runner.Payload{Name: payloadName, Format: "xml", Data: doc}, own)
	if err != nil {
		return err
	}
	if n := ref.Data.Instances(); n != len(withNonce) {
		return fmt.Errorf("%s: payload parsed back as %d instances, rendered %d", in.workload, n, len(withNonce))
	}
	// Encoded as serve.Client encodes it, so the server decodes what a
	// cvcall request would carry.
	buf, err := json.Marshal(serve.ValidateRequest{Payloads: []serve.PayloadRef{{Name: payloadName, Format: "xml", Data: string(doc)}}})
	if err != nil {
		return err
	}
	off := bytes.Index(buf, nonceMarker)
	if off < 0 || bytes.Count(buf, nonceMarker) != 1 {
		return fmt.Errorf("%s: nonce setting not found exactly once in the encoded body", in.workload)
	}
	want, _, err := canonical(&serve.ValidateResponse{
		Tenant: tenantName, Spec: specName, Report: ref.Report.Wire(), Load: ref.Data, Code: ref.Code(),
	})
	if err != nil {
		return err
	}
	in.bodies = append(in.bodies, &requestBody{buf: buf, nonceOff: off + len(nonceMarker) - nonceDigits - len(`\"`), want: want})
	in.truth.Instances, in.truth.PayloadLen, in.truth.BodyLen = len(ins), len(doc), len(buf)
	return nil
}

// reference answers one payload with the AST interpreter on a
// sequential, cache-less runner — never the timed path — and gates it
// against the generator's own store: the rendered-and-reparsed data
// must check exactly as many instances (never 0) and report the same
// violations.
func (in *inputs) reference(p runner.Payload, own *report.Report) (*runner.Result, error) {
	ref, err := runner.New(runner.Options{Interpret: true, Parallel: 1, Env: in.env}).Run(context.Background(),
		runner.Job{SpecSrc: in.spec, Payloads: []runner.Payload{p}})
	if err != nil {
		return nil, fmt.Errorf("%s: reference run: %w", in.workload, err)
	}
	rep := ref.Report
	if rep.InstancesChecked == 0 || len(rep.SpecErrors) > 0 || rep.Interrupted || ref.Data == nil || ref.Data.Degraded() {
		return nil, fmt.Errorf("%s: reference run is vacuous or degraded: %d instances checked, %d spec errors",
			in.workload, rep.InstancesChecked, len(rep.SpecErrors))
	}
	if rep.InstancesChecked != own.InstancesChecked {
		return nil, fmt.Errorf("%s: payload checks %d instances, the generator's store %d",
			in.workload, rep.InstancesChecked, own.InstancesChecked)
	}
	if got, want := blame(rep), blame(own); !slices.Equal(got, want) {
		return nil, fmt.Errorf("%s: payload reports %d violations, the generator's store %d, or they differ by (spec, class, value)",
			in.workload, len(got), len(want))
	}
	in.truth.Specs, in.truth.Checked, in.truth.Violations = rep.SpecsRun, rep.InstancesChecked, len(rep.Violations)
	return ref, nil
}

// blame lists a report's violations as sorted (spec, class, value)
// triples. Not by key: the xml driver numbers scopes the generator left
// unnumbered, and unique blames by position, which rendering permutes.
func blame(rep *report.Report) []string {
	out := make([]string, len(rep.Violations))
	for i, v := range rep.Violations {
		out[i] = v.Spec + "\x00" + classOf(v.Key) + "\x00" + v.Value
	}
	sort.Strings(out)
	return out
}

// classOf strips instance names and ordinals from a rendered key.
func classOf(key string) string {
	segs := strings.Split(key, ".")
	for i, s := range segs {
		if j := strings.Index(s, "::"); j >= 0 {
			s = s[:j]
		}
		if j := strings.IndexByte(s, '['); j >= 0 {
			s = s[:j]
		}
		segs[i] = s
	}
	return strings.Join(segs, ".")
}

// canonical re-encodes a response with the two fields that legitimately
// differ between the reference and the service zeroed, returning the
// specs_reused it carried.
func canonical(resp *serve.ValidateResponse) ([]byte, int, error) {
	if resp.Report == nil {
		return nil, 0, fmt.Errorf("response carries no report")
	}
	wire := *resp.Report
	reused := wire.SpecsReused
	wire.DurationNS, wire.SpecsReused = 0, 0
	cp := *resp
	cp.Report = &wire
	b, err := json.Marshal(&cp)
	return b, reused, err
}

// maskDuration blanks the run time in a rendered report's summary line
// ("... N violation(s) in 12ms").
func maskDuration(text []byte) []byte {
	nl := bytes.IndexByte(text, '\n')
	if nl < 0 {
		nl = len(text)
	}
	at := bytes.LastIndex(text[:nl], []byte(" in "))
	if at < 0 {
		return text
	}
	out := append([]byte(nil), text[:at]...)
	return append(out, text[nl:]...)
}

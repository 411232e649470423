package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"confvalley/internal/config"
	"confvalley/internal/driver"
)

// Reduced scale for the tests: the same generators, gates and code
// paths, a few hundredths of the data.
var testSizes = sizes{typeA: 0.05, expertClusters: 8, typeB: 0.002}

func testConfig(t *testing.T, workload string, procs int, trace bool) runConfig {
	return runConfig{
		workload: workload, seed: 7, window: 150 * time.Millisecond, trace: trace,
		sizes: testSizes, procs: procs, workDir: t.TempDir(),
	}
}

// Every workload, gates on, on one, two and four processors: zero failed
// operations, and exactly the metrics BENCHMARK.json promises.
func TestWorkloads(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		for _, workload := range workloadNames {
			for _, trace := range []bool{false, true} {
				if trace && procs == 4 {
					continue // the traced path is covered on one and two
				}
				t.Run(fmt.Sprintf("%s/procs=%d/trace=%t", workload, procs, trace), func(t *testing.T) {
					res, err := runWorkload(testConfig(t, workload, procs, trace), io.Discard)
					if err != nil {
						t.Fatal(err)
					}
					if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
						t.Fatalf("correct=%t attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
					}
					want := endToEnd
					if trace {
						want = perLayer
					}
					if len(res.Metrics) != len(want) {
						t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
					}
					for _, d := range want {
						if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
							t.Errorf("metric %s: got %+v (present %t), want unit %s", d.name, m, ok, d.unit)
						}
					}
					if !trace {
						for name, m := range res.Metrics {
							if m.Value <= 0 {
								t.Errorf("end-to-end metric %s = %v, must never be 0", name, m.Value)
							}
						}
						return
					}
					if c := res.Metrics["trace.coverage_pct"].Value; c <= 0 {
						t.Errorf("trace.coverage_pct = %v", c)
					}
					if n := res.Metrics["engine.instances_checked"].Value; n <= 0 {
						t.Errorf("engine.instances_checked = %v: the operations validate nothing", n)
					}
					if workload == "repeat_hit" && res.Metrics["serve.cache_hit_ratio"].Value != 1 {
						t.Errorf("repeat_hit hit ratio %v, want 1", res.Metrics["serve.cache_hit_ratio"].Value)
					}
					if workload == "novel_xml" && res.Metrics["engine.specs_run"].Value != 0 {
						t.Errorf("novel_xml re-ran %v specs, want all reused", res.Metrics["engine.specs_run"].Value)
					}
					if workload == "expert_eval" && res.Metrics["engine.specs_reused"].Value != 0 {
						t.Errorf("expert_eval reused %v specs, want none", res.Metrics["engine.specs_reused"].Value)
					}
				})
			}
		}
	}
}

// The same seed gives the same inputs, byte for byte; another seed does
// not.
func TestInputsFollowSeed(t *testing.T) {
	digest := func(workload string, seed int64) string {
		in, err := buildInputs(workload, seed, testSizes)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		fmt.Fprintf(h, "%+v\x00%s\x00", in.truth, in.spec)
		for _, rb := range in.bodies {
			h.Write(rb.buf)
			h.Write(rb.want)
		}
		h.Write(in.kv)
		h.Write(in.wantText)
		return fmt.Sprintf("%x", h.Sum(nil))
	}
	for _, workload := range workloadNames {
		a, b, c := digest(workload, 3), digest(workload, 3), digest(workload, 4)
		if a != b {
			t.Errorf("%s: seed 3 gave two different inputs", workload)
		}
		if a == c {
			t.Errorf("%s: seeds 3 and 4 gave the same inputs", workload)
		}
	}
}

// The renderer's output parses back to the instances it was given:
// values escaped, scopes nested, same-named siblings in ordinal order
// even when their instances arrive interleaved.
func TestRenderRoundTrip(t *testing.T) {
	k := config.K
	ins := []*config.Instance{
		{Key: k("Cluster::east[2]", "Fabric[1]", "Timeout"), Value: "30"},
		{Key: k("Cluster::west[1]", "Fabric[1]", "Timeout"), Value: "31"},
		{Key: k("Cluster::east[2]", "Fabric[1]", "Path"), Value: `\\share\a<b>&"c" 'd'`},
		{Key: k("Top"), Value: "flat"},
		{Key: k("Cluster::west[1]", "Rack::r1[2]", "Blade::b0[1]", "BladeID"), Value: "1"},
		{Key: k("Cluster::west[1]", "Rack::r0[1]", "Blade::b0[1]", "BladeID"), Value: "2"},
		{Key: k("Cluster::east[2]", "Fabric[1]", "Timeout"), Value: "dup\tkey\n"},
	}
	doc := renderXML(ins)
	back, err := driver.ParseScoped(context.Background(), "xml", doc, "t.xml", "")
	if err != nil {
		t.Fatalf("%v\n%s", err, doc)
	}
	flat := func(ins []*config.Instance) []string {
		out := make([]string, len(ins))
		for i, in := range ins {
			out[i] = in.Key.String() + " = " + in.Value
		}
		sort.Strings(out)
		return out
	}
	if got, want := flat(back), flat(ins); !reflect.DeepEqual(got, want) {
		t.Errorf("round trip:\n got %q\nwant %q\n%s", got, want, doc)
	}
	// Document order within a class follows the ordinals, not arrival.
	var timeouts []string
	for _, in := range back {
		if in.Key.ClassPath() == "Cluster.Fabric.Timeout" {
			timeouts = append(timeouts, in.Value)
		}
	}
	if want := []string{"31", "30", "dup\tkey\n"}; !reflect.DeepEqual(timeouts, want) {
		t.Errorf("class order %q, want %q", timeouts, want)
	}
}

// BENCHMARK.json lists exactly the workloads and metrics the binary
// prints, with the units and bounds the binary judges by.
func TestBenchmarkJSON(t *testing.T) {
	type entry struct {
		Name, Unit, Better, Why string
		Bound                   *float64
	}
	var manifest struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []entry
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&manifest); err != nil {
		t.Fatal(err)
	}
	if want := []string{"bash", "bench/run.sh"}; !reflect.DeepEqual(manifest.Command, want) {
		t.Errorf("command %q, want %q", manifest.Command, want)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(manifest.Paths, want) {
		t.Errorf("paths %q, want %q", manifest.Paths, want)
	}
	var names []string
	for _, w := range manifest.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %q, the binary runs %q", names, workloadNames)
	}
	check := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics listed, the binary prints %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			e := got[i]
			if e.Name != d.name || e.Unit != d.unit {
				t.Errorf("%s[%d]: listed %s (%s), the binary prints %s (%s)", kind, i, e.Name, e.Unit, d.name, d.unit)
			}
			g, bounded := gates[d.name]
			switch {
			case bounded && (e.Bound == nil || *e.Bound != g.bound || e.Better != g.better):
				t.Errorf("%s: listed better=%s bound=%v, the binary judges by %+v", d.name, e.Better, e.Bound, g)
			case !bounded && e.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", d.name)
			}
		}
	}
	check("end_to_end", manifest.EndToEnd, endToEnd)
	check("per_layer", manifest.PerLayer, perLayer)
	if len(gates) != len(endToEnd) {
		t.Errorf("%d gates for %d end-to-end metrics", len(gates), len(endToEnd))
	}
}

// The quartiles are Python's statistics.quantiles(v, n=4).
func TestQuartiles(t *testing.T) {
	q1, q3, ok := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if !ok || q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10: %v %v %t, want 2.75 8.25", q1, q3, ok)
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Error("one value has no quartiles")
	}
}

// --compare: ok within the bound, regressed beyond it in the worse
// direction only, unresolved when the runs themselves spread wider.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, latency, throughput []float64) string {
		var b strings.Builder
		for i := range latency {
			res := result{Correct: true, Attempted: 10, Metrics: map[string]metric{
				"latency_p50_ms":   {latency[i], "ms"},
				"throughput_ops_s": {throughput[i], "1/s"},
				"alloc_mb_per_op":  {100 + float64(i%2)*20, "MB"},
			}}
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "inputs ...\n# run workload=novel_xml seed=%d trace=0\n%s\n", i, line)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base", []float64{100, 101, 102, 103}, []float64{10, 10.1, 10.2, 10.3})
	next := write("next", []float64{140, 141, 142, 143}, []float64{11, 11.1, 11.2, 11.3})
	var out bytes.Buffer
	if err := compareFiles(base, next, &out); err != nil {
		t.Fatal(err)
	}
	for metricName, verdict := range map[string]string{
		"latency_p50_ms":   "regressed",  // 1.39x of the base, bound 0.25
		"throughput_ops_s": "ok",         // better, and within the bound anyway
		"alloc_mb_per_op":  "unresolved", // quartiles 0.2 of the median apart, bound 0.05
	} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, metricName) {
				found = strings.HasSuffix(strings.TrimSpace(line), verdict)
			}
		}
		if !found {
			t.Errorf("%s: want verdict %s in\n%s", metricName, verdict, out.String())
		}
	}
	if !strings.HasSuffix(strings.TrimSpace(out.String()), `"claim": null}`) {
		t.Errorf("the comparison must end without a claim:\n%s", out.String())
	}
}

// The real command, in a directory that holds only BENCHMARK.json and
// bench/, from an empty config and cache directory: it must fail
// without printing a result, and the go command it ran must have had
// telemetry off — or it leaves a detached child behind.
func TestCommandFailsCleanlyOutsideTheRepo(t *testing.T) {
	for _, tool := range []string{"bash", "go"} {
		if _, err := exec.LookPath(tool); err != nil {
			t.Skipf("%s not on PATH", tool)
		}
	}
	dir := t.TempDir()
	copyFile := func(from, to string) {
		b, err := os.ReadFile(from)
		if err == nil {
			if err = os.MkdirAll(filepath.Dir(to), 0o755); err == nil {
				err = os.WriteFile(to, b, 0o644)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	copyFile(filepath.Join("..", "BENCHMARK.json"), filepath.Join(dir, "BENCHMARK.json"))
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Type().IsRegular() {
			copyFile(e.Name(), filepath.Join(dir, "bench", e.Name()))
		}
	}

	cmd := exec.Command("bash", "bench/run.sh", "--workload", "repeat_hit", "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err == nil {
		t.Errorf("the command succeeded outside the repository")
	}
	if stdout.Len() != 0 {
		t.Errorf("standard output not empty: %q", stdout.String())
	}

	configDir := filepath.Join(dir, ".bench_build", "config")
	env := exec.Command("go", "env", "GOTELEMETRY")
	env.Dir = dir
	env.Env = append(os.Environ(), "XDG_CONFIG_HOME="+configDir, "GOCACHE="+filepath.Join(dir, ".bench_build", "gocache"))
	out, err := env.Output()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(out)); got != "off" {
		t.Errorf("GOTELEMETRY under the script's config directory is %q, want off (stderr of the command: %s)", got, stderr.String())
	}
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.Name() == "upload.token" {
			t.Errorf("the go command created %s: telemetry was on", path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

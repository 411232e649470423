package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// runSet is the captured output of several runs: for each workload and
// metric, the value every run reported, in file order.
type runSet struct {
	values map[string]map[string][]float64
	units  map[string]string
	failed int // runs whose result line says correct: false
}

// readRunSet parses captured standard output: "# run workload=…" headers,
// each followed by that run's result line. Other lines are skipped.
func readRunSet(path string) (*runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := &runSet{values: make(map[string]map[string][]float64), units: make(map[string]string)}
	workload := ""
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "# run workload="); ok {
			workload, _, _ = strings.Cut(rest, " ")
			continue
		}
		if workload == "" || !strings.HasPrefix(line, "{") {
			continue
		}
		var res result
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			return nil, fmt.Errorf("%s: result line of %s: %w", path, workload, err)
		}
		if !res.Correct {
			set.failed++
		}
		if set.values[workload] == nil {
			set.values[workload] = make(map[string][]float64)
		}
		for name, m := range res.Metrics {
			set.values[workload][name] = append(set.values[workload][name], m.Value)
			set.units[name] = m.Unit
		}
		workload = ""
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(set.values) == 0 {
		return nil, fmt.Errorf("%s: no result lines", path)
	}
	return set, nil
}

// compareFiles prints, per workload and metric, both medians, their
// ratio, and for the bounded metrics both quartile spreads and a
// verdict: regressed when the second median is worse than the first by
// more than the bound, unresolved when either spread is wider than the
// bound (the runs cannot tell), ok otherwise.
func compareFiles(basePath, newPath string, w io.Writer) error {
	base, err := readRunSet(basePath)
	if err != nil {
		return err
	}
	next, err := readRunSet(newPath)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median (n)\tnew median (n)\tnew/base\tbound\tbase spread\tnew spread\tverdict")
	tally := map[string]int{}
	for _, workload := range workloadNames {
		names := make([]string, 0, len(base.values[workload]))
		for name := range base.values[workload] {
			if _, both := next.values[workload][name]; both {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			a, b := base.values[workload][name], next.values[workload][name]
			ma, mb := median(a), median(b)
			ratio := "n/a"
			if ma != 0 {
				ratio = fmt.Sprintf("%.3fx of %.4g", mb/ma, ma)
			}
			bound, spreadA, spreadB, verdict := "-", "-", "-", "-"
			if d, ok := gates[name]; ok {
				sa, sb := spread(a), spread(b)
				verdict = judge(d, ma, mb, sa, sb)
				tally[verdict]++
				bound = fmt.Sprintf("%.2f", d.bound)
				spreadA, spreadB = fmt.Sprintf("%.3f", sa), fmt.Sprintf("%.3f", sb)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4f (%d)\t%.4f (%d)\t%s\t%s\t%s\t%s\t%s\n",
				workload, name, base.units[name], ma, len(a), mb, len(b), ratio, bound, spreadA, spreadB, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	// A comparison states what moved; whether that is a gain is for a
	// change's own issue to claim.
	_, err = fmt.Fprintf(w, "{\"ok\": %d, \"regressed\": %d, \"unresolved\": %d, \"failed_runs\": %d, \"claim\": null}\n",
		tally["ok"], tally["regressed"], tally["unresolved"], base.failed+next.failed)
	return err
}

func judge(d gate, base, next, spreadBase, spreadNext float64) string {
	worse := (next - base) / base
	if d.better == "higher" {
		worse = -worse
	}
	switch {
	case spreadBase > d.bound || spreadNext > d.bound:
		return "unresolved"
	case worse > d.bound:
		return "regressed"
	}
	return "ok"
}

// spread is the distance between the first and third quartile as a
// share of the median, the quartiles taken as Python's
// statistics.quantiles(v, n=4) takes them. Fewer than two values have
// no spread to speak of and count as infinitely wide.
func spread(v []float64) float64 {
	q1, q3, ok := quartiles(v)
	m := median(v)
	if !ok || m == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / m
}

func quartiles(v []float64) (q1, q3 float64, ok bool) {
	m := len(v)
	if m < 2 {
		return 0, 0, false
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(i int) float64 { // the i-th of n=4 cut points, exclusive method
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3), true
}

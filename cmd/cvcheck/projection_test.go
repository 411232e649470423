package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"confvalley/internal/report"
)

// canonicalWire re-encodes one JSON report with its wall time and reuse
// accounting zeroed.
func canonicalWire(t *testing.T, b string) string {
	t.Helper()
	var w report.Wire
	if err := json.Unmarshal([]byte(b), &w); err != nil {
		t.Fatalf("%v: %q", err, b)
	}
	w.DurationNS, w.SpecsReused = 0, 0
	out, err := json.Marshal(&w)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// A KV source loads through the specification's projection, and the load
// line says how many of its instances the specification reads — none
// included.
func TestLoadLineCountsProjectedInstances(t *testing.T) {
	dir := writeFiles(t, map[string]string{
		"s.cpl":    "$app.timeout -> int & [1, 60]\n",
		"none.cpl": "$cache.size -> int\n",
		"d.kv":     "app.timeout = 30\napp.name = svc\ndb.port = 5432\n",
	})
	data := filepath.Join(dir, "d.kv")
	for spec, read := range map[string]int{"s.cpl": 1, "none.cpl": 0} {
		code, _, stderr := runCvcheck(t, "-spec", filepath.Join(dir, spec), "-data", "kv:"+data)
		if want := fmt.Sprintf("loaded 3 instance(s) from %s (%d read by the specification)\n", data, read); code != 0 || !strings.Contains(stderr, want) {
			t.Fatalf("%s: exit %d, want %q, stderr:\n%s", spec, code, want, stderr)
		}
	}
}

// A watch round whose spec edit changes what the specification reads
// loads the unchanged data file under the new projection, in full, and
// reports what a cold run of the edited spec does — not the earlier
// spec's projected parse, which lacks every class the new one reads.
func TestWatchSpecEditChangesProjection(t *testing.T) {
	dir := writeFiles(t, map[string]string{
		"s.cpl": "$app.timeout -> int & [1, 60]\n",
		"d.kv":  "app.timeout = 400\ndb.port = 99999\ndb.host = db1\n",
	})
	spec, data := filepath.Join(dir, "s.cpl"), filepath.Join(dir, "d.kv")
	var out, errb syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-spec", spec, "-data", "kv:" + data, "-json", "-watch", "5ms", "-watch-rounds", "2"}, &out, &errb)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(out.String(), "\n") {
		if time.Now().After(deadline) {
			t.Fatalf("round 1 never reported:\n%s", errb.String())
		}
		time.Sleep(time.Millisecond)
	}
	const edited = "$db.port -> int & [1, 9999]\n$db.host -> nonempty\n"
	if err := os.WriteFile(spec, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("watch run did not complete two rounds")
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 || !strings.Contains(errb.String(), "(2 read by the specification)") {
		t.Fatalf("%d report(s); stderr:\n%s", len(lines), errb.String())
	}
	_, cold, _ := runCvcheck(t, "-spec", spec, "-data", "kv:"+data, "-json")
	if got, want := canonicalWire(t, lines[1]), canonicalWire(t, cold); got != want {
		t.Fatalf("round 2 after the spec edit:\n got: %s\nwant: %s", got, want)
	}
}

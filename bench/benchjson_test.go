package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json is `bench -describe`; this keeps the committed file in
// step with the tables in metrics.go and inside the driver's limits.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
	}
	if err := json.Unmarshal(committed, &doc); err != nil {
		t.Fatal(err)
	}
	want, err := describe(doc.RunSeconds)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(committed), want) {
		t.Error("BENCHMARK.json differs from `bench -describe -seconds <run_seconds>`; regenerate it")
	}
	if len(committed) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(committed))
	}
}

func TestMetricTablesAreWithinTheContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(d metricDef) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %q unit %q: bad or repeated", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		check(d)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
	}
	for _, d := range perLayer {
		check(d)
	}
	if d := endToEnd[0]; d.Name != "setup_s" || d.Unit != "s" || d.Better != "lower" {
		t.Error("setup_s must be an end-to-end metric in seconds, lower is better")
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 || len(workloadDefs) < 2 || len(workloadDefs) > 8 {
		t.Error("table sizes outside the contract")
	}
	for _, w := range workloadDefs {
		if !name.MatchString(w.Name) || len(w.Why) > 200 || newWorkload(w.Name) == nil {
			t.Errorf("workload %q: bad name, why of %d characters, or no driver", w.Name, len(w.Why))
		}
	}
}

func TestCompareFlagsARegression(t *testing.T) {
	write := func(ops, p99 float64, failed int64) string {
		f, err := os.CreateTemp(t.TempDir(), "*.json")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		rep := report{Workloads: map[string]*result{"ld-churn": {Correct: failed == 0, Attempted: 10, Failed: failed,
			Metrics: map[string]value{"virt_ops_s": {ops, "op/s"}, "recovery_virt_s": {p99, "s"}, "wall.ops_s": {ops / 2, "op/s"}}}}}
		if err := json.NewEncoder(f).Encode(rep); err != nil {
			t.Fatal(err)
		}
		return f.Name()
	}
	base := write(1000, 50, 0)
	for _, c := range []struct {
		what string
		b    string
		ok   bool
	}{
		{"inside the bounds", write(960, 57, 0), true},
		{"better", write(2000, 10, 0), true},
		{"virtual throughput down 6 %", write(940, 50, 0), false},
		{"recovery up 16 %", write(1000, 58, 0), false},
		{"failed ops", write(1000, 50, 1), false},
	} {
		var out bytes.Buffer
		ok, err := compare(&out, base, c.b)
		if err != nil || ok != c.ok {
			t.Errorf("%s: ok=%v err=%v\n%s", c.what, ok, err, out.String())
		}
	}
}

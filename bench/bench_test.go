package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"gaussiancube/internal/experiments"
)

// benchmarkFile is the benchmark declaration at the repository root.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkFileMatchesCode checks that BENCHMARK.json declares
// exactly the workloads and metrics the command produces, with the same
// units, and that every name is well formed.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	b := loadBenchmarkFile(t)
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ", "), workloadNames(); got != want {
		t.Errorf("BENCHMARK.json workloads %q, command runs %q", got, want)
	}
	declared := make(map[string]string)
	for _, list := range [][]struct{ Name, Unit, Better string }{b.EndToEnd, b.PerLayer} {
		for _, m := range list {
			names = append(names, m.Name)
			declared[m.Name] = m.Unit
		}
	}
	for _, n := range names {
		if !valid.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]+", n)
		}
	}
	e2e := make(map[string]bool)
	for _, m := range b.EndToEnd {
		e2e[m.Name] = true
	}
	if len(declared) != len(metricDefs) {
		t.Errorf("BENCHMARK.json declares %d metrics, the command %d", len(declared), len(metricDefs))
	}
	for _, d := range metricDefs {
		if declared[d.name] != d.unit || e2e[d.name] != d.e2e {
			t.Errorf("metric %s: command unit %q e2e=%v, BENCHMARK.json unit %q e2e=%v", d.name, d.unit, d.e2e, declared[d.name], e2e[d.name])
		}
	}
}

// TestSmokeAllWorkloads runs every workload briefly, traced, and checks
// that each prints every declared metric with its unit and fails
// nothing.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := loadBenchmarkFile(t)
	start := time.Now()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "all", "-seed", "3", "-seconds", "0.3", "-trace", "1", "-out", t.TempDir()}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	t.Logf("all five workloads in %v", time.Since(start))
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res struct {
		Correct   bool
		Attempted int64
		Failed    int64
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("result: correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stdout.String())
	}
	printed := make(map[string]string) // "workload metric" -> unit
	for _, l := range lines {
		if f := strings.Fields(l); len(f) >= 4 && !strings.HasPrefix(l, "#") {
			printed[f[0]+" "+f[1]] = f[3]
			if f[1] == "fail_ratio" && f[2] != "0" {
				t.Errorf("%s fail_ratio %s", f[0], f[2])
			}
		}
	}
	for _, w := range b.Workloads {
		if _, ok := printed[w.Name+" fail_ratio"]; !ok {
			t.Errorf("%s printed no fail_ratio", w.Name)
		}
		for _, m := range b.EndToEnd {
			if printed[w.Name+" "+m.Name] != m.Unit {
				t.Errorf("%s: end-to-end %s not printed with unit %s", w.Name, m.Name, m.Unit)
			}
		}
		for _, m := range b.PerLayer {
			if got := res.Metrics[w.Name+"/"+m.Name]; got.Unit != m.Unit {
				t.Errorf("%s: per-layer %s reported with unit %q, want %q", w.Name, m.Name, got.Unit, m.Unit)
			}
		}
	}
	if hot := res.Metrics["wire-hot/serve.fast_hit_ratio"].Value; hot <= 0.99 {
		t.Errorf("wire-hot fast-path hit ratio %v, want > 0.99", hot)
	}
	if miss := res.Metrics["wire-miss/serve.fast_hit_ratio"].Value; miss >= 0.01 {
		t.Errorf("wire-miss fast-path hit ratio %v, want < 0.01", miss)
	}
}

// TestGoldenMatchesExperiments cross-checks the golden sim-sweep points
// against the figure code itself.
func TestGoldenMatchesExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full paper sweep")
	}
	var golden map[string][]float64
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		t.Fatal(err)
	}
	sweep := experiments.DefaultSweep()
	sweep.Parallelism = 2
	fig5, fig6 := experiments.Figures5and6(sweep)
	fig7, fig8 := experiments.Figures7and8(sweep)
	checked := 0
	for s := range fig5.Series {
		for i, p := range fig5.Series[s].Points {
			key := "fig56/" + fig5.Series[s].Name + "/n=" + strconv.Itoa(int(p.X))
			want := []float64{p.Y, fig6.Series[s].Points[i].Y}
			checked += compareGolden(t, golden, key, want)
		}
	}
	for i, p := range fig7.Series[0].Points {
		want := []float64{p.Y, fig8.Series[0].Points[i].Y, fig7.Series[1].Points[i].Y, fig8.Series[1].Points[i].Y}
		checked += compareGolden(t, golden, "fig78/n="+strconv.Itoa(int(p.X)), want)
	}
	if checked != len(golden) {
		t.Errorf("checked %d points, golden has %d", checked, len(golden))
	}
}

func compareGolden(t *testing.T, golden map[string][]float64, key string, want []float64) int {
	t.Helper()
	got, ok := golden[key]
	if !ok || len(got) != len(want) {
		t.Errorf("%s: golden %v, experiments %v", key, got, want)
		return 0
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s[%d]: golden %v, experiments %v", key, i, got[i], want[i])
		}
	}
	return 1
}

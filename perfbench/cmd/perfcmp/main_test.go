package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles = %v", q)
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "job_p50_ms", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "jobs_per_s", Better: "higher", Bound: 0.1}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		m    metricSpec
		cur  []float64
		want string
	}{
		{lower, scale(1.00), "within bound"},
		{lower, scale(1.05), "within bound"},
		{lower, scale(1.20), "worse"},
		{lower, scale(0.80), "better"},
		{higher, scale(0.80), "worse"},
		{higher, scale(1.20), "better"},
		{lower, []float64{50, 150, 60, 140, 100, 70, 130, 90, 110, 100}, "unresolved"},
	} {
		if got := judge(c.m, base, c.cur); got != c.want {
			t.Errorf("%s better=%s cur=%v: got %q, want %q", c.m.Name, c.m.Better, c.cur[:3], got, c.want)
		}
	}
}

// The model_* metrics repeat exactly, so their bound is a float-rounding
// epsilon: one SWAP more in a sum of thousands is already worse.
func TestJudgeExactMetric(t *testing.T) {
	m := metricSpec{Name: "model_swaps", Better: "lower", Bound: 0.000001}
	same := func(v float64) []float64 { return []float64{v, v, v, v, v, v, v, v, v, v} }
	base := same(5000)
	for _, c := range []struct {
		cur  []float64
		want string
	}{
		{same(5000), "within bound"},
		{same(5001), "worse"},
		{same(4999), "better"},
	} {
		if got := judge(m, base, c.cur); got != c.want {
			t.Errorf("cur=%v: got %q, want %q", c.cur[0], got, c.want)
		}
	}
}

func TestRunPrintsVerdicts(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	os.WriteFile(bench, []byte(`{"workloads":[{"name":"w"}],
		"end_to_end":[{"name":"jobs_per_s","unit":"1/s","better":"higher","bound":0.1}],
		"per_layer":[{"name":"x.ms","unit":"ms","better":"lower"}]}`), 0o644)
	for set, v := range map[string]string{"base": "100", "new": "150"} {
		d := filepath.Join(dir, set, "w")
		os.MkdirAll(d, 0o755)
		for i := 0; i < 3; i++ {
			line := `{"correct":true,"attempted":4,"failed":0,"metrics":{"jobs_per_s":{"value":` + v + `,"unit":"1/s"}}}`
			os.WriteFile(filepath.Join(d, string(rune('a'+i))), []byte("noise\n"+line+"\n"), 0o644)
		}
	}
	var out bytes.Buffer
	if err := run([]string{"-bench", bench, filepath.Join(dir, "base"), filepath.Join(dir, "new")}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "better") || !strings.Contains(out.String(), "+50.00%") {
		t.Fatalf("unexpected output:\n%s", out.String())
	}
}

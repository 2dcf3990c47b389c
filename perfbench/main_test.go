package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// benchDef is the part of ../BENCHMARK.json the self-test reads.
type benchDef struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBench(t *testing.T) benchDef {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d benchDef
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// buildLinqd builds the daemon the linqd-serve workload starts.
func buildLinqd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "linqd")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/linqd")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build linqd: %v\n%s", err, out)
	}
	return bin
}

// TestWorkloadsSelfCheck runs every workload for one round, untraced and
// traced, and requires its output checks to pass and its report to carry
// exactly the metrics BENCHMARK.json names. It asserts nothing about time.
func TestWorkloadsSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once")
	}
	def := loadBench(t)
	linqd := buildLinqd(t)
	for _, w := range def.Workloads {
		for _, trace := range []bool{false, true} {
			name := w.Name
			if trace {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				runFn, ok := runners[w.Name]
				if !ok {
					t.Fatalf("BENCHMARK.json names workload %q the program lacks", w.Name)
				}
				cfg := config{
					workload: w.Name, seed: 7, seconds: 0, trace: trace,
					linqd: linqd, workDir: t.TempDir(), setupReps: 1, log: &bytes.Buffer{},
				}
				out, err := runFn(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if code, err := emit(&buf, cfg, out); code != 0 {
					t.Fatalf("exit %d: %v\n%s", code, err, buf.String())
				}
				lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
				var rep report
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Attempted < 1 {
					t.Fatalf("report %+v", rep)
				}
				want := def.EndToEnd
				if trace {
					want = def.PerLayer
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("report has %d metrics, BENCHMARK.json names %d", len(rep.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := rep.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s in %s, BENCHMARK.json says %s", m.Name, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}

// TestRoundsWholeRounds checks that a window always hands out whole rounds.
func TestRoundsWholeRounds(t *testing.T) {
	r := newRounds(10, 0)
	n := 0
	for {
		if _, ok := r.take(); !ok {
			break
		}
		n++
	}
	if n != 10 || r.total() != 10 {
		t.Fatalf("zero-length window ran %d operations, want one round of 10", n)
	}
}

// TestRoundsRate checks jobs_per_s on a window with one slow round: the
// median block leaves it out, and a block starts where the one before
// ended even when a later round finished first.
func TestRoundsRate(t *testing.T) {
	r := newRounds(2, 0)
	at := func(s float64) time.Time { return r.start.Add(time.Duration(s * float64(time.Second))) }
	// Rounds of 2 jobs end at 1, 2, 4 (slow), 5, 4.9 (before round 3)
	// and 6 s; the last round is unfinished and not counted.
	r.left = []int{0, 0, 0, 0, 0, 0, 1}
	r.ends = []time.Time{at(1), at(2), at(4), at(5), at(4.9), at(6), {}}
	for _, c := range []struct {
		per  int
		want float64
	}{
		// Blocks of 1, 1, 2, 1 and 1 s, the last with rounds 4 and 5:
		// 2, 2, 1, 2 and 4 jobs/s.
		{1, 2},
		// Blocks of 2, 3 and 1 s with 4 jobs each: 2, 1.33 and 4 jobs/s.
		{2, 2},
		// One block: 12 jobs in 6 s.
		{100, 2},
	} {
		if got := r.rate(c.per, 2); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("rate over blocks of %d rounds = %g, want %g", c.per, got, c.want)
		}
	}
}

func TestQuantileHelpers(t *testing.T) {
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("median = %g", got)
	}
	if got := percentile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 90); got != 9 {
		t.Errorf("p90 = %g", got)
	}
	// Medians 2 and 8: geometric mean 4. Doubling the cheapest job's
	// latency moves it, although the slow job's median is unchanged.
	if got := jobP50([][]float64{{1, 2, 3}, {8, 8}}); math.Abs(got-4) > 1e-12 {
		t.Errorf("jobP50 = %g, want 4", got)
	}
	if got := jobP50([][]float64{{2, 4, 6}, {8, 8}}); !(got > 4) {
		t.Errorf("jobP50 = %g after the cheap job slowed, want > 4", got)
	}
}

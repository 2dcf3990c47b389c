// Command perfcmp compares two sets of benchmark runs against the bounds
// in BENCHMARK.json. Each set is a directory with one subdirectory per
// workload, holding one file per run: that run's standard output, whose
// last line is the benchmark's JSON report.
//
//	go run ./cmd/perfcmp -bench ../BENCHMARK.json base/ new/
//
// For every workload × metric it prints each set's median and quartiles,
// the change of the medians, and a verdict for the end-to-end metrics:
//
//   - worse: the new median is worse by more than the metric's bound;
//   - better: the new median is better by more than the base set's own
//     spread (the distance between its quartiles, as a share of its
//     median);
//   - unresolved: a set's spread exceeds the bound, so neither can be
//     told, unless every new run beats (or trails) every base run;
//   - within bound: none of the above.
//
// Per-layer metrics have no bound; their rows carry no verdict.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type report struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfcmp:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("perfcmp", flag.ContinueOnError)
	benchPath := fs.String("bench", "../BENCHMARK.json", "benchmark definition")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return errors.New("usage: perfcmp [-bench BENCHMARK.json] BASE_DIR NEW_DIR")
	}
	b, err := os.ReadFile(*benchPath)
	if err != nil {
		return err
	}
	var bench benchFile
	if err := json.Unmarshal(b, &bench); err != nil {
		return fmt.Errorf("%s: %w", *benchPath, err)
	}
	fmt.Fprintf(w, "%-12s %-28s %-8s %28s %28s %9s  %s\n",
		"workload", "metric", "unit", "base median [q1, q3]", "new median [q1, q3]", "change", "verdict")
	for _, wl := range bench.Workloads {
		base, err := readSet(filepath.Join(fs.Arg(0), wl.Name))
		if err != nil {
			return err
		}
		cur, err := readSet(filepath.Join(fs.Arg(1), wl.Name))
		if err != nil {
			return err
		}
		if len(base) == 0 || len(cur) == 0 {
			fmt.Fprintf(w, "%-12s (no runs in one of the sets)\n", wl.Name)
			continue
		}
		fmt.Fprintf(w, "%-12s failed share: base %s, new %s\n", wl.Name, failedShare(base), failedShare(cur))
		specs := append(append([]metricSpec(nil), bench.EndToEnd...), bench.PerLayer...)
		for i, m := range specs {
			bv, cv := values(base, m.Name), values(cur, m.Name)
			if len(bv) == 0 || len(cv) == 0 {
				continue
			}
			verdict := "-"
			if i < len(bench.EndToEnd) {
				verdict = judge(m, bv, cv)
			}
			bq, cq := quartiles(bv), quartiles(cv)
			change := "n/a"
			if bq[1] != 0 {
				change = fmt.Sprintf("%+.2f%%", 100*(cq[1]-bq[1])/math.Abs(bq[1]))
			}
			fmt.Fprintf(w, "%-12s %-28s %-8s %28s %28s %9s  %s\n", wl.Name, m.Name, m.Unit,
				fmtQ(bq), fmtQ(cq), change, verdict)
		}
	}
	return nil
}

// readSet loads the last line of every file in dir; a missing directory is
// an empty set.
func readSet(dir string) ([]report, error) {
	ents, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []report
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		line, err := lastLine(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: last line is not a report: %w", filepath.Join(dir, e.Name()), err)
		}
		out = append(out, r)
	}
	return out, nil
}

func lastLine(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	last := ""
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	return last, sc.Err()
}

func values(rs []report, name string) []float64 {
	var v []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

func failedShare(rs []report) string {
	shares := map[string]bool{}
	for _, r := range rs {
		shares[fmt.Sprintf("%d/%d", r.Failed, r.Attempted)] = true
	}
	keys := make([]string, 0, len(shares))
	for k := range shares {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(keys) > 3 {
		keys = append(keys[:3], "…")
	}
	return strings.Join(keys, " ")
}

// quartiles returns q1, median, q3 as Python's
// statistics.quantiles(values, n=4) computes them (the exclusive method).
func quartiles(v []float64) [3]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

func fmtQ(q [3]float64) string {
	return fmt.Sprintf("%.5g [%.5g, %.5g]", q[1], q[0], q[2])
}

// judge applies the verdict rules of the package comment.
func judge(m metricSpec, base, cur []float64) string {
	bq, cq := quartiles(base), quartiles(cur)
	if bq[1] == 0 {
		return "unresolved"
	}
	sign := 1.0 // positive worse means the new set is worse
	if m.Better == "higher" {
		sign = -1
	}
	worse := sign * (cq[1] - bq[1]) / math.Abs(bq[1])
	spread := func(q [3]float64) float64 {
		if q[1] == 0 {
			return 0
		}
		return (q[2] - q[0]) / math.Abs(q[1])
	}
	baseSpread := spread(bq)
	if baseSpread > m.Bound || spread(cq) > m.Bound {
		switch {
		case dominates(sign, cur, base):
			return "better"
		case dominates(sign, base, cur) && worse > m.Bound:
			return "worse"
		}
		return "unresolved"
	}
	switch {
	case worse > m.Bound:
		return "worse"
	case -worse > baseSpread && worse < 0:
		return "better"
	}
	return "within bound"
}

// dominates reports whether every run of a is better than every run of b.
func dominates(sign float64, a, b []float64) bool {
	worstA, bestB := math.Inf(-1), math.Inf(1)
	for _, x := range a {
		worstA = math.Max(worstA, sign*x)
	}
	for _, x := range b {
		bestB = math.Min(bestB, sign*x)
	}
	return worstA < bestB
}

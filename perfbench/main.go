// Command perfbench is the repository's benchmark: three workloads that
// cover the physics core (the LinQ compiler passes, the analytic TILT /
// IdealTI / QCCD models, the Monte Carlo estimators) and the serving path
// (HTTP → jobs → journal → compile cache in a real linqd process).
//
// Usage:
//
//	perfbench --workload paper-suite|mc-fidelity|linqd-serve \
//	    --seed N --seconds S --trace 0|1 [--linqd path/to/linqd]
//
// Every input is generated from --seed before timing starts, and a warm-up
// round runs every distinct job once. The timed window then runs whole
// rounds of the same operations until --seconds have passed. With
// --trace 0 the last line of standard output is a JSON object carrying the
// end-to-end metrics; with --trace 1 a separate run times the calls into
// each layer from this program and reports the per-layer metrics instead.
// Outputs are checked against independent computations after the window;
// a failed check, or any failure outside the one named fault class, makes
// the command exit 1.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	linqd     string    // linqd binary (linqd-serve only)
	workDir   string    // scratch directory for journals; removed afterwards
	setupReps int       // set-ups per run; 0 = the workload's default
	log       io.Writer // progress and per-class lines
}

// reps is how many times a workload sets itself up from scratch: setup_s
// reports the median, and the last set-up is the one timed.
func (c config) reps(def int) int {
	if c.setupReps > 0 {
		return c.setupReps
	}
	return def
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// opClass counts the attempted and failed operations of one class.
type opClass struct {
	Name      string
	Attempted int64
	Failed    int64
}

// outcome is what a workload hands back to main.
type outcome struct {
	classes []opClass
	metrics map[string]metric
	// problems lists every failed output check; any entry makes the run
	// incorrect.
	problems []string
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) set(name string, v float64, unit string) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runners maps each workload name to its runner.
var runners = map[string]func(context.Context, config) (*outcome, error){
	"paper-suite": runPaperSuite,
	"mc-fidelity": runMCFidelity,
	"linqd-serve": runServe,
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	code, err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// run parses flags, runs one workload, and prints its report. It returns
// the process exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "paper-suite, mc-fidelity, or linqd-serve")
		seed     = fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = fs.Float64("seconds", 10, "length of the timed window (whole rounds; 0 = one round)")
		trace    = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		linqd    = fs.String("linqd", ".bench_build/linqd", "linqd binary for linqd-serve")
		work     = fs.String("workdir", ".bench_build", "scratch directory root (journals)")
	)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	runFn, ok := runners[*workload]
	if !ok {
		return 2, fmt.Errorf("unknown --workload %q (want paper-suite, mc-fidelity, or linqd-serve)", *workload)
	}
	if *trace != 0 && *trace != 1 {
		return 2, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds < 0 {
		return 2, errors.New("--seconds must be non-negative")
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		return 1, err
	}
	dir, err := os.MkdirTemp(*work, "perfbench-")
	if err != nil {
		return 1, err
	}
	defer os.RemoveAll(dir)

	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		linqd:    *linqd,
		workDir:  dir,
		log:      stdout,
	}
	out, err := runFn(ctx, cfg)
	if err != nil {
		return 1, err
	}
	return emit(stdout, cfg, out)
}

// emit prints the per-class counts, every metric by name with its unit,
// the failed checks, and the final JSON line. It returns the exit code.
func emit(w io.Writer, cfg config, out *outcome) (int, error) {
	rep := report{Correct: len(out.problems) == 0, Metrics: out.metrics}
	for _, c := range out.classes {
		fmt.Fprintf(w, "class %-28s attempted %7d  failed %7d\n", c.Name, c.Attempted, c.Failed)
		rep.Attempted += c.Attempted
		rep.Failed += c.Failed
	}
	names := make([]string, 0, len(out.metrics))
	for n := range out.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "metric %-28s %16.6g %s\n", n, out.metrics[n].Value, out.metrics[n].Unit)
	}
	for _, p := range out.problems {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", p)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(w, "%s\n", line)
	if !rep.Correct {
		return 1, fmt.Errorf("%s: %d output checks failed", cfg.workload, len(out.problems))
	}
	return 0, nil
}

// workers is the client/worker count the workloads use: one per CPU the
// Go runtime schedules on.
func workers() int { return runtime.GOMAXPROCS(0) }

// timeSetup runs setup reps times and returns the median duration in
// seconds. Between reps, teardown (untimed, may be nil) releases what the
// previous rep started; the state of the last rep is the one timed.
func timeSetup(reps int, setup func() error, teardown func() error) (float64, error) {
	if reps < 1 {
		reps = 1
	}
	ds := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if i > 0 && teardown != nil {
			if err := teardown(); err != nil {
				return 0, err
			}
		}
		start := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(start).Seconds())
	}
	return median(ds), nil
}

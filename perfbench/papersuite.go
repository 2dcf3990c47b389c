package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	tilt "repro"
	"repro/internal/circuit"
	"repro/internal/workloads"
	"repro/perfbench/check"
)

// tableII is the paper's Table II two-qubit gate count for the circuits
// whose count the generators reproduce exactly.
var tableII = map[string]int{"QAOA": 1260, "RCS": 560, "QFT": 4032}

// suiteJob is one (circuit, backend) pair of the paper's evaluation.
type suiteJob struct {
	name    string // e.g. "QFT/TILT-16"
	class   string // operation class: TILT-16, TILT-32, IdealTI, QCCD
	bench   workloads.Benchmark
	backend tilt.Backend
	head    int // TILT head size; 0 for the other backends
}

// suiteResult is one executed job.
type suiteResult struct {
	art *tilt.Artifact
	res *tilt.Result
}

// newSuite builds the paper-suite jobs in a seed-shuffled round order.
func newSuite(seed int64, obs tilt.PassObserver) []suiteJob {
	var jobs []suiteJob
	for _, b := range workloads.All() {
		n := b.Qubits() // 64 ions; SQRT 78
		for _, head := range []int{16, 32} {
			opts := []tilt.Option{tilt.WithDevice(n, head)}
			if obs != nil {
				opts = append(opts, tilt.WithPassObserver(obs))
			}
			jobs = append(jobs, suiteJob{
				name: fmt.Sprintf("%s/TILT-%d", b.Name, head), class: fmt.Sprintf("TILT-%d", head),
				bench: b, backend: tilt.NewTILT(opts...), head: head,
			})
		}
		jobs = append(jobs,
			suiteJob{name: b.Name + "/IdealTI", class: "IdealTI", bench: b, backend: tilt.NewIdealTI(tilt.WithDevice(n, 16))},
			suiteJob{name: b.Name + "/QCCD", class: "QCCD", bench: b, backend: tilt.NewQCCD(tilt.WithDevice(n, 16))},
		)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(jobs), func(i, k int) { jobs[i], jobs[k] = jobs[k], jobs[i] })
	return jobs
}

// passSpans turns pipeline pass events into child spans of the compile
// span currently open. Each client has its own backends and its own
// passSpans, so the events it sees come from one compile at a time.
type passSpans struct {
	tr     *tracer
	parent int
	open   int
}

func (p *passSpans) PassStarted(name string, _ int) { p.open = p.tr.start("pass "+name, p.parent) }
func (p *passSpans) PassFinished(tilt.PassTiming, error) {
	p.tr.end(p.open)
}

// execSuiteJob compiles and simulates one job, recording spans when
// traced.
func execSuiteJob(ctx context.Context, j suiteJob, tr *tracer, ps *passSpans) (suiteResult, error) {
	root := tr.start("job "+j.class, -1)
	defer tr.end(root)
	cs := tr.start("compile "+j.class, root)
	if ps != nil {
		ps.parent = cs
	}
	a, err := j.backend.Compile(ctx, j.bench.Circuit)
	tr.end(cs)
	if err != nil {
		return suiteResult{}, fmt.Errorf("%s: compile: %w", j.name, err)
	}
	ss := tr.start("simulate "+j.class, root)
	r, err := j.backend.Simulate(ctx, a)
	tr.end(ss)
	if err != nil {
		return suiteResult{}, fmt.Errorf("%s: simulate: %w", j.name, err)
	}
	return suiteResult{art: a, res: r}, nil
}

// suiteRoundsPerBlock is how many rounds jobs_per_s takes as one block
// (see rounds.rate): about a third of a second on two clients.
const suiteRoundsPerBlock = 2

func runPaperSuite(ctx context.Context, cfg config) (*outcome, error) {
	clients := workers()
	var (
		tr     *tracer
		pss    = make([]*passSpans, clients) // per client; nil entries untraced
		suites = make([][]suiteJob, clients) // per client: its own backends
		jobs   []suiteJob                    // client 0's, for the warm-up and the checks
		warm   []suiteResult
	)
	setup, err := timeSetup(cfg.reps(5), func() error {
		for c := range suites {
			var obs tilt.PassObserver
			if cfg.trace {
				pss[c] = &passSpans{}
				obs = pss[c]
			}
			suites[c] = newSuite(cfg.seed, obs)
		}
		jobs = suites[0]
		warm = make([]suiteResult, len(jobs))
		for i, j := range jobs {
			r, err := execSuiteJob(ctx, j, nil, nil)
			if err != nil {
				return err
			}
			warm[i] = r
		}
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		tr = newTracer()
		for _, ps := range pss {
			ps.tr = tr
		}
	}

	out := &outcome{}
	n := len(jobs)
	byJob := make([][]float64, n)
	var (
		mu       sync.Mutex // guards byJob, firstErr and out
		firstErr error
	)
	r := newRounds(n, time.Duration(cfg.seconds*float64(time.Second)))
	cpu0 := selfCPU()
	start := time.Now()
	loopErr := runClosedLoop(ctx, clients, r, func(c, k int) {
		j := suites[c][k%n]
		t0 := time.Now()
		res, err := execSuiteJob(ctx, j, tr, pss[c])
		d := time.Since(t0)
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return
		}
		byJob[k%n] = append(byJob[k%n], ms(d))
		checkRepeat(out, j.name, warm[k%n].res, res.res)
	})
	window := time.Since(start)
	cpu := selfCPU() - cpu0
	attempted := int64(r.total())
	if err := errors.Join(loopErr, firstErr); err != nil {
		return nil, err
	}

	out.classes = suiteClasses(jobs, attempted/int64(n))
	checkSuite(out, jobs, warm)
	lat := flatten(byJob)
	done := float64(len(lat))
	rate := r.rate(suiteRoundsPerBlock, float64(n))
	fmt.Fprintf(cfg.log, "paper-suite: %d jobs on %d clients in %.2fs (%.2f jobs/s over the window, %.2f the median block); latency p50 %.3f ms, p90 %.3f ms, p99 %.3f ms\n",
		len(lat), clients, window.Seconds(), done/window.Seconds(), rate, median(lat), percentile(lat, 90), percentile(lat, 99))
	if cfg.trace {
		alloc, err := compileAlloc(ctx, cfg.seed)
		if err != nil {
			return nil, err
		}
		suiteLayers(out, tr.aggregate(), jobs, warm, alloc)
		return out, nil
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	out.set("jobs_per_s", rate, "1/s")
	out.set("job_p50_ms", jobP50(byJob), "ms")
	out.set("cpu_ms_per_job", ms(cpu)/done, "ms")
	out.set("setup_s", setup, "s")
	out.set("peak_rss_mb", rss, "MB")
	setModel(out, suiteModel(jobs, warm))
	return out, nil
}

// compileAlloc returns the mean bytes allocated by one TILT compile: each
// distinct TILT job compiled once more, alone, on fresh backends, between
// two reads of the runtime's allocation counter. Measured inside the
// window, the counter would also take in the other clients' allocations.
func compileAlloc(ctx context.Context, seed int64) (float64, error) {
	var total uint64
	compiles := 0
	for _, j := range newSuite(seed, nil) {
		if j.head == 0 {
			continue
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := j.backend.Compile(ctx, j.bench.Circuit)
		runtime.ReadMemStats(&after)
		if err != nil {
			return 0, fmt.Errorf("%s: compile: %w", j.name, err)
		}
		total += after.TotalAlloc - before.TotalAlloc
		compiles++
	}
	return float64(total) / float64(compiles), nil
}

// suiteClasses counts operations per backend class; a failed job ends the
// run with an error, so none is counted failed.
func suiteClasses(jobs []suiteJob, rounds int64) []opClass {
	idx := map[string]int{}
	var cs []opClass
	for _, j := range jobs {
		k, ok := idx[j.class]
		if !ok {
			k = len(cs)
			idx[j.class] = k
			cs = append(cs, opClass{Name: "paper-suite/" + j.class})
		}
		cs[k].Attempted += rounds
	}
	return cs
}

// model sums the simulated statistics over distinct TILT jobs.
type model struct {
	swaps, moves int
	execUs       float64
}

func setModel(out *outcome, m model) {
	out.set("model_swaps", float64(m.swaps), "count")
	out.set("model_tape_moves", float64(m.moves), "count")
	out.set("model_exec_ms", m.execUs/1000, "sim_ms")
}

func suiteModel(jobs []suiteJob, warm []suiteResult) model {
	var m model
	for i, j := range jobs {
		if j.head > 0 {
			m.swaps += warm[i].res.TILT.SwapCount
			m.moves += warm[i].res.TILT.Moves
			m.execUs += warm[i].res.ExecTimeUs
		}
	}
	return m
}

// checkRepeat requires a timed run of a job to reproduce its warm-up
// result: the analytic models are deterministic.
func checkRepeat(out *outcome, name string, want, got *tilt.Result) {
	if got.SuccessRate != want.SuccessRate || got.ExecTimeUs != want.ExecTimeUs ||
		got.SwapGates != want.SwapGates || got.TwoQubitGates != want.TwoQubitGates {
		out.fail("%s: repeated run gave success %.17g / exec %.17g, first run %.17g / %.17g",
			name, got.SuccessRate, got.ExecTimeUs, want.SuccessRate, want.ExecTimeUs)
	}
}

// checkSuite verifies the warm-up results of every distinct job against
// independent computations and required properties.
func checkSuite(out *outcome, jobs []suiteJob, warm []suiteResult) {
	ideal := map[string]float64{}
	tiltSR := map[string][]float64{}
	for i, j := range jobs {
		a, r := warm[i].art, warm[i].res
		if !(r.SuccessRate > 0 && r.SuccessRate <= 1) {
			out.fail("%s: success rate %g outside (0, 1]", j.name, r.SuccessRate)
		}
		if want, ok := tableII[j.bench.Name]; ok {
			if got := countTwoQubit(a.Native); got != want {
				out.fail("%s: native circuit has %d two-qubit gates, Table II says %d", j.name, got, want)
			}
			if r.TwoQubitGates != want {
				out.fail("%s: result reports %d two-qubit gates, Table II says %d", j.name, r.TwoQubitGates, want)
			}
		}
		switch {
		case j.head > 0:
			cr := a.Compile
			err := check.All(check.Program{
				Native: cr.Native, Physical: cr.Physical,
				Initial: cr.InitialMapping, Final: cr.FinalMapping,
				Schedule: cr.Schedule, Ions: j.bench.Qubits(), Head: j.head,
			})
			if err != nil {
				out.fail("%s: %v", j.name, err)
			}
			tiltSR[j.bench.Name] = append(tiltSR[j.bench.Name], r.SuccessRate)
		case j.class == "IdealTI":
			ideal[j.bench.Name] = r.SuccessRate
		}
	}
	for name, srs := range tiltSR {
		for _, sr := range srs {
			if ideal[name] < sr {
				out.fail("%s: IdealTI success %g below TILT's %g", name, ideal[name], sr)
			}
		}
	}
}

func countTwoQubit(c *circuit.Circuit) int {
	n := 0
	for _, g := range c.Gates() {
		if g.IsTwoQubit() {
			n++
		}
	}
	return n
}

// suiteLayers reports the per-layer metrics of a traced paper-suite run.
func suiteLayers(out *outcome, lt layerTimes, jobs []suiteJob, warm []suiteResult, alloc float64) {
	perClass := func(class string) float64 { return float64(lt.count["job "+class]) }
	tiltJobs := perClass("TILT-16") + perClass("TILT-32")
	pass := func(name string) float64 { return ms(lt.self["pass "+name]) / tiltJobs }
	out.set("decompose.ms", pass(tilt.PassDecompose), "ms")
	out.set("place.ms", pass(tilt.PassPlace), "ms")
	out.set("insert_swaps.ms", pass(tilt.PassInsertSwaps), "ms")
	out.set("schedule.ms", pass(tilt.PassSchedule), "ms")
	out.set("compile.alloc_mb", alloc/1e6, "MB")

	var swaps, opposing, moves, dist, tiltN, shuttle, qccdN float64
	for i, j := range jobs {
		r := warm[i].res
		switch {
		case j.head > 0:
			tiltN++
			swaps += float64(r.TILT.SwapCount)
			opposing += float64(r.TILT.OpposingSwaps)
			moves += float64(r.TILT.Moves)
			dist += float64(r.TILT.DistSpacings)
		case r.QCCD != nil:
			qccdN++
			q := r.QCCD
			shuttle += float64(q.Splits + q.Merges + q.Hops + q.EdgeSwaps)
		}
	}
	out.set("insert_swaps.swaps", swaps/tiltN, "count")
	out.set("insert_swaps.opposing_swaps", opposing/tiltN, "count")
	out.set("schedule.moves", moves/tiltN, "count")
	out.set("schedule.dist_spacings", dist/tiltN, "count")
	out.set("qccd.shuttle_ops", shuttle/qccdN, "count")

	tiltSim := lt.total["simulate TILT-16"] + lt.total["simulate TILT-32"]
	out.set("sim.ms", ms(tiltSim)/tiltJobs, "ms")
	out.set("idealti.ms", ms(lt.total["job IdealTI"])/perClass("IdealTI"), "ms")
	out.set("qccd.ms", ms(lt.total["job QCCD"])/perClass("QCCD"), "ms")
	fillIdleLayers(out)
}

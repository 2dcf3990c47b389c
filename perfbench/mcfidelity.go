package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"time"

	tilt "repro"
	"repro/internal/circuit"
	"repro/internal/mc"
	"repro/internal/qsim"
	"repro/internal/workloads"
)

const (
	// mcShots is the shot count of every mc-fidelity job, an eighth of an
	// RNG shard: a round of the four jobs takes under a second on one
	// core, so a run holds enough rounds for its medians to leave out
	// bursts of host contention.
	mcShots = 32
	// mcWorkers is the MC worker count: 32 shots fill a single shard, so
	// a second worker would have nothing to run. The workload runs one
	// job at a time: with one job per CPU, the run-to-run spread was no
	// smaller over six alternating pairs of runs.
	mcWorkers = 1
	// mcHead and mcEpsilon follow experiments.MCValidation: a short head
	// and a raised ε, so error events are frequent enough to matter.
	mcHead    = 4
	mcEpsilon = 2e-4
)

// mcJob is one Monte Carlo job: a small circuit on a head-4 chain with its
// own MC seed.
type mcJob struct {
	name    string
	bench   workloads.Benchmark
	seed    int64
	backend *tilt.TILTBackend
}

// mcCircuits spread the clean-shot fraction from ~0.99 to ~0.5.
func mcCircuits() []workloads.Benchmark {
	ghz := workloads.GHZ(12)
	ghz.Name = "GHZ-12"
	vqe := workloads.VQE(12, 2, 17)
	vqe.Name = "VQE-12"
	q10 := workloads.QFTN(10)
	q10.Name = "QFT-10"
	q12 := workloads.QFTN(12)
	q12.Name = "QFT-12"
	return []workloads.Benchmark{ghz, vqe, q10, q12}
}

func mcNoise() tilt.NoiseParams {
	p := tilt.DefaultNoise()
	p.Epsilon = mcEpsilon
	return p
}

// newMCJobs builds the round: the four circuits, each with an MC seed
// derived from the workload seed. With analytic set, the backends run the
// analytic model only and the traced run calls the mc layer itself.
func newMCJobs(seed int64, analytic bool) []mcJob {
	var jobs []mcJob
	for i, b := range mcCircuits() {
		s := splitmix(seed, i)
		opts := []tilt.Option{tilt.WithDevice(b.Qubits(), mcHead), tilt.WithNoise(mcNoise())}
		if !analytic {
			opts = append(opts, tilt.WithShots(mcShots), tilt.WithSeed(s), tilt.WithMCWorkers(mcWorkers))
		}
		jobs = append(jobs, mcJob{name: b.Name, bench: b, seed: s, backend: tilt.NewTILT(opts...)})
	}
	return jobs
}

// mcRun is one finished job.
type mcRun struct {
	art *tilt.Artifact
	res *tilt.Result
	mc  tilt.MCStats
}

// mcLayers accumulates the traced run's counts from its direct calls into
// mc and qsim; their times are spans.
type mcLayers struct {
	shots     int
	cleanFrac float64
	gates     int // ideal gate applications per shot, summed over jobs
	jobs      int
}

// execMC runs one job. Untraced, it is Execute on a backend built
// WithShots; traced, the backend runs the analytic model and the MC
// estimators are called here, with the same options, so each is timed.
func execMC(ctx context.Context, j mcJob, tr *tracer, ml *mcLayers) (mcRun, error) {
	if tr == nil {
		a, err := j.backend.Compile(ctx, j.bench.Circuit)
		if err != nil {
			return mcRun{}, fmt.Errorf("%s: compile: %w", j.name, err)
		}
		r, err := j.backend.Simulate(ctx, a)
		if err != nil {
			return mcRun{}, fmt.Errorf("%s: simulate: %w", j.name, err)
		}
		if r.MC == nil {
			return mcRun{}, fmt.Errorf("%s: no Monte Carlo statistics", j.name)
		}
		return mcRun{art: a, res: r, mc: *r.MC}, nil
	}
	root := tr.start("job", -1)
	defer tr.end(root)
	cs := tr.start("compile", root)
	a, err := j.backend.Compile(ctx, j.bench.Circuit)
	tr.end(cs)
	if err != nil {
		return mcRun{}, fmt.Errorf("%s: compile: %w", j.name, err)
	}
	ss := tr.start("sim", root)
	r, err := j.backend.Simulate(ctx, a)
	tr.end(ss)
	if err != nil {
		return mcRun{}, fmt.Errorf("%s: simulate: %w", j.name, err)
	}
	cr := a.Compile
	dev := tilt.Device{NumIons: j.bench.Qubits(), HeadSize: mcHead}
	t0 := time.Now()
	eng, err := mc.NewEngine(cr.Physical, cr.Schedule, dev, mcNoise(), mc.WithWorkers(mcWorkers))
	tr.record("mc.engine", root, t0, time.Since(t0))
	if err != nil {
		return mcRun{}, fmt.Errorf("%s: mc engine: %w", j.name, err)
	}
	st := tilt.MCStats{Shots: mcShots, Seed: j.seed, HasStateFidelity: true}
	t0 = time.Now()
	st.CleanProbability, st.CleanStderr, err = eng.CleanProbability(ctx, mcShots, j.seed)
	tr.record("mc.clean", root, t0, time.Since(t0))
	if err != nil {
		return mcRun{}, fmt.Errorf("%s: clean probability: %w", j.name, err)
	}
	t0 = time.Now()
	st.StateFidelity, st.StateFidelityStderr, err = eng.StateFidelity(ctx, mcShots, j.seed)
	tr.record("mc.fidelity", root, t0, time.Since(t0))
	if err != nil {
		return mcRun{}, fmt.Errorf("%s: state fidelity: %w", j.name, err)
	}
	ml.shots += mcShots
	ml.cleanFrac += st.CleanProbability
	ml.gates += countApplied(cr.Physical)
	ml.jobs++
	return mcRun{art: a, res: r, mc: st}, nil
}

// countApplied counts the gates a statevector shot applies (measurements
// are not applied).
func countApplied(c *circuit.Circuit) int {
	n := 0
	for _, g := range c.Gates() {
		if g.Kind != circuit.Measure {
			n++
		}
	}
	return n
}

func runMCFidelity(ctx context.Context, cfg config) (*outcome, error) {
	var (
		jobs []mcJob
		warm []mcRun
	)
	setup, err := timeSetup(cfg.reps(5), func() error {
		jobs = newMCJobs(cfg.seed, cfg.trace)
		warm = make([]mcRun, len(jobs))
		var ml mcLayers
		for i, j := range jobs {
			var tr *tracer
			if cfg.trace {
				tr = newTracer() // the warm-up's spans are discarded
			}
			r, err := execMC(ctx, j, tr, &ml)
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
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var ml mcLayers

	out := &outcome{}
	n := len(jobs)
	byJob := make([][]float64, n)
	r := newRounds(n, time.Duration(cfg.seconds*float64(time.Second)))
	var firstErr error
	cpu0 := selfCPU()
	start := time.Now()
	loopErr := runClosedLoop(ctx, 1, r, func(_, k int) {
		j := jobs[k%n]
		t0 := time.Now()
		run, err := execMC(ctx, j, tr, &ml)
		d := time.Since(t0)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return
		}
		byJob[k%n] = append(byJob[k%n], ms(d))
		if run.mc != warm[k%n].mc {
			out.fail("%s: repeated run gave MC estimates %+v, first run %+v", j.name, run.mc, warm[k%n].mc)
		}
	})
	window := time.Since(start)
	cpu := selfCPU() - cpu0
	if err := errors.Join(loopErr, firstErr); err != nil {
		return nil, err
	}
	attempted := int64(r.total())
	for _, j := range jobs {
		out.classes = append(out.classes, opClass{Name: "mc-fidelity/" + j.name, Attempted: attempted / int64(n)})
	}
	checkMC(out, jobs, warm)
	lat := flatten(byJob)
	rate := r.rate(1, float64(n))
	fmt.Fprintf(cfg.log, "mc-fidelity: %d jobs in %.2fs (%.3f jobs/s over the window, %.3f the median round), %d shots each, %d MC worker; latency p50 %.1f ms, max %.1f ms\n",
		len(lat), window.Seconds(), float64(len(lat))/window.Seconds(), rate, mcShots, mcWorkers, median(lat), percentile(lat, 100))

	if cfg.trace {
		lt := tr.aggregate()
		jn := float64(ml.jobs)
		out.set("mc.engine_ms", ms(lt.total["mc.engine"])/jn, "ms")
		out.set("mc.clean_ms", ms(lt.total["mc.clean"])/jn, "ms")
		out.set("mc.fidelity_ms", ms(lt.total["mc.fidelity"])/jn, "ms")
		out.set("mc.us_per_shot", 1000*ms(lt.total["mc.fidelity"])/float64(ml.shots), "us")
		out.set("mc.clean_shot_fraction", ml.cleanFrac/jn, "ratio")
		out.set("qsim.gates_per_shot", float64(ml.gates)/jn, "count")
		out.set("qsim.ns_per_gate", qsimNsPerGate(jobs, warm), "ns")
		out.set("sim.ms", ms(lt.total["sim"])/jn, "ms")
		fillIdleLayers(out)
		return out, nil
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	done := float64(len(lat))
	out.set("jobs_per_s", rate, "1/s")
	out.set("job_p50_ms", jobP50(byJob), "ms")
	out.set("cpu_ms_per_job", ms(cpu)/done, "ms")
	out.set("setup_s", setup, "s")
	out.set("peak_rss_mb", rss, "MB")
	var m model
	for _, w := range warm {
		m.swaps += w.res.TILT.SwapCount
		m.moves += w.res.TILT.Moves
		m.execUs += w.res.ExecTimeUs
	}
	setModel(out, m)
	return out, nil
}

// qsimNsPerGate times the statevector kernel directly: every job's
// physical circuit applied gate by gate from |0…0⟩.
func qsimNsPerGate(jobs []mcJob, warm []mcRun) float64 {
	const reps = 8
	gates := 0
	var d time.Duration
	for i, j := range jobs {
		c := warm[i].art.Compile.Physical
		st := qsim.NewState(j.bench.Qubits())
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			st.Reset()
			for _, g := range c.Gates() {
				if g.Kind != circuit.Measure {
					st.ApplyGate(g)
				}
			}
		}
		d += time.Since(t0)
		gates += reps * countApplied(c)
	}
	return float64(d.Nanoseconds()) / float64(gates)
}

// checkMC verifies every distinct job's estimates against the analytic
// model and the closed-form noise-free states.
func checkMC(out *outcome, jobs []mcJob, warm []mcRun) {
	for i, j := range jobs {
		st, sr := warm[i].mc, warm[i].res.SuccessRate
		if st.Shots != mcShots || !st.HasStateFidelity {
			out.fail("%s: MC ran %d shots (fidelity %v), want %d with fidelity", j.name, st.Shots, st.HasStateFidelity, mcShots)
			continue
		}
		// CleanProbability's expectation is the analytic success rate.
		if d := math.Abs(st.CleanProbability - sr); !(d <= 5*st.CleanStderr) {
			out.fail("%s: clean probability %.4f is %.1f Wilson half-widths from the analytic %.4f",
				j.name, st.CleanProbability, d/st.CleanStderr, sr)
		}
		// Clean shots have fidelity 1, so the fidelity estimate is at least
		// the clean fraction, up to sampling error.
		se := math.Hypot(st.CleanStderr, st.StateFidelityStderr)
		if st.StateFidelity > 1+1e-12 || st.StateFidelity < st.CleanProbability-5*se {
			out.fail("%s: state fidelity %.4f outside [clean %.4f − 5·%.4f, 1]",
				j.name, st.StateFidelity, st.CleanProbability, se)
		}
	}
	for i, j := range jobs {
		var want func(n int) []complex128
		switch j.name {
		case "GHZ-12":
			want = ghzState
		case "QFT-10", "QFT-12":
			want = uniformState
		default:
			continue
		}
		n := j.bench.Qubits()
		st := qsim.NewState(n)
		st.Run(warm[i].art.Compile.Physical)
		// Both closed forms are symmetric under any qubit relabeling, so
		// the routed state is compared without undoing the final mapping.
		if f := fidelity(st.Amplitudes(), want(n)); math.Abs(1-f) > 1e-9 {
			out.fail("%s: noise-free compiled state has fidelity %.12f with its closed form", j.name, f)
		}
	}
}

// ghzState is (|0…0⟩ + |1…1⟩)/√2.
func ghzState(n int) []complex128 {
	v := make([]complex128, 1<<n)
	v[0] = complex(1/math.Sqrt2, 0)
	v[len(v)-1] = complex(1/math.Sqrt2, 0)
	return v
}

// uniformState is the QFT of |0…0⟩: every amplitude 2^(−n/2).
func uniformState(n int) []complex128 {
	v := make([]complex128, 1<<n)
	a := complex(math.Pow(2, -float64(n)/2), 0)
	for i := range v {
		v[i] = a
	}
	return v
}

// fidelity is |⟨a|b⟩|², computed here rather than by qsim.
func fidelity(a, b []complex128) float64 {
	var s complex128
	for i := range a {
		s += cmplx.Conj(a[i]) * b[i]
	}
	return real(s)*real(s) + imag(s)*imag(s)
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	tilt "repro"
	"repro/internal/circuit"
	"repro/internal/workloads"
)

// The linqd-serve round: eight operations in a seed-fixed order, ten
// submissions. The shares are assumed, not taken from recorded linqd
// traffic (the repository has none); each class drives its own path
// through the daemon, and the README lists them.
const (
	pairsPerRound    = 2   // repeated circuits, each submitted twice at once: deduped in flight, compile-cache hits
	distinctPerRound = 5   // distinct circuits: compile-cache misses
	narrowPerRound   = 1   // narrower than the default head: the named fault
	hotCircuits      = 4   // size of the repeated set
	distinctPool     = 256 // distinct circuits, cycled; twice linqd's default 128-entry cache
	roundSize        = pairsPerRound + distinctPerRound + narrowPerRound
	submitsPerRound  = 2*pairsPerRound + distinctPerRound + narrowPerRound
	// roundsPerBlock is how many rounds jobs_per_s takes as one block:
	// about a third of a second at 750 jobs/s.
	roundsPerBlock = 32
)

// narrowFault is the text of the known fault every narrow submission hits:
// linqd's default -head 16 -ions 0 accepts a circuit narrower than the head
// and fails it later in the compiler's device check.
const narrowFault = "exceeds chain length"

// Operation classes of linqd-serve.
const (
	classHot      = "repeated"
	classDistinct = "distinct"
	classNarrow   = "narrow-head-exceeds-chain"
)

// serveInputs is the pre-generated circuit mix.
type serveInputs struct {
	hot      []*tilt.Circuit
	distinct []*tilt.Circuit
	narrow   []*tilt.Circuit
	layout   [roundSize]string // class of each position in a round
}

// serveCircuitSeed fixes the circuit set, so the model_* sums repeat
// exactly on every run; the workload seed orders the submissions.
const serveCircuitSeed = 2021

// newServeInputs generates the circuit mix and lets the workload seed
// order it: the positions of the classes within a round, the order the
// repeated set rotates in, and the order the distinct pool is cycled in.
func newServeInputs(seed int64) serveInputs {
	gen := rand.New(rand.NewSource(serveCircuitSeed))
	in := serveInputs{
		narrow: []*tilt.Circuit{workloads.GHZ(8).Circuit, workloads.QFTN(12).Circuit},
	}
	for i := 0; i < hotCircuits; i++ {
		in.hot = append(in.hot, wideCircuit(gen, i))
	}
	for i := 0; i < distinctPool; i++ {
		in.distinct = append(in.distinct, wideCircuit(gen, i))
	}
	for i := range in.layout {
		switch {
		case i < pairsPerRound:
			in.layout[i] = classHot
		case i < pairsPerRound+distinctPerRound:
			in.layout[i] = classDistinct
		default:
			in.layout[i] = classNarrow
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(roundSize, func(i, k int) { in.layout[i], in.layout[k] = in.layout[k], in.layout[i] })
	rng.Shuffle(len(in.hot), func(i, k int) { in.hot[i], in.hot[k] = in.hot[k], in.hot[i] })
	rng.Shuffle(len(in.distinct), func(i, k int) { in.distinct[i], in.distinct[k] = in.distinct[k], in.distinct[i] })
	return in
}

// wideCircuit is a seeded circuit of width 16–24: every fourth one a QFT
// on a random qubit order, the rest random CNOT/RZ circuits.
func wideCircuit(rng *rand.Rand, i int) *tilt.Circuit {
	n := 16 + rng.Intn(9)
	if i%4 == 3 {
		perm := rng.Perm(n)
		c := circuit.New(n)
		for _, g := range workloads.QFTN(n).Circuit.Gates() {
			qs := make([]int, len(g.Qubits))
			for k, q := range g.Qubits {
				qs[k] = perm[q]
			}
			c.MustAdd(g.Kind, g.Theta, qs...)
		}
		return c
	}
	return workloads.Random(n, 2*n+rng.Intn(n), rng.Int63()).Circuit
}

// serveOp is operation k of the window: its class and circuit, and how
// many copies of it one client submits at once.
type serveOp struct {
	class  string
	id     string // stable circuit name, e.g. "distinct/17"
	circ   *tilt.Circuit
	copies int
}

func (in *serveInputs) op(k int) serveOp {
	r, pos := k/roundSize, k%roundSize
	class := in.layout[pos]
	switch class {
	case classHot:
		// Both copies are posted together, so the second reaches the
		// daemon while the first is in flight and is deduped.
		i := (r*pairsPerRound + in.slot(pos)) % len(in.hot)
		return serveOp{class, fmt.Sprintf("hot/%d", i), in.hot[i], 2}
	case classDistinct:
		i := (r*distinctPerRound + in.slot(pos)) % len(in.distinct)
		return serveOp{class, fmt.Sprintf("distinct/%d", i), in.distinct[i], 1}
	default:
		i := (r*narrowPerRound + in.slot(pos)) % len(in.narrow)
		return serveOp{class, fmt.Sprintf("narrow/%d", i), in.narrow[i], 1}
	}
}

// slot is the index of round position pos among the positions of its
// class.
func (in *serveInputs) slot(pos int) int {
	n := 0
	for p := 0; p < pos; p++ {
		if in.layout[p] == in.layout[pos] {
			n++
		}
	}
	return n
}

// distinctOps lists every distinct job once, for the warm-up. The
// repeated set goes last, so the window starts with it in the compile
// cache as it would be in steady state.
func (in *serveInputs) distinctOps() []serveOp {
	var ops []serveOp
	for i, c := range in.distinct {
		ops = append(ops, serveOp{classDistinct, fmt.Sprintf("distinct/%d", i), c, 1})
	}
	for i, c := range in.narrow {
		ops = append(ops, serveOp{classNarrow, fmt.Sprintf("narrow/%d", i), c, 1})
	}
	for i, c := range in.hot {
		ops = append(ops, serveOp{classHot, fmt.Sprintf("hot/%d", i), c, 1})
	}
	return ops
}

// served is one finished submission.
type served struct {
	op  serveOp
	res *tilt.Result
	err error
	lat time.Duration
}

// client submits through tilt.Remote over one shared HTTP client.
type client struct {
	remote *tilt.RemoteBackend
	http   *http.Client
}

func newClient(addr string, rt http.RoundTripper, conns int) *client {
	if rt == nil {
		rt = &http.Transport{MaxIdleConnsPerHost: conns}
	}
	hc := &http.Client{Transport: rt, Timeout: 2 * time.Minute}
	return &client{remote: tilt.Remote(addr, tilt.RemoteHTTPClient(hc)), http: hc}
}

func (c *client) do(ctx context.Context, op serveOp) served {
	t0 := time.Now()
	res, err := c.remote.Execute(ctx, op.circ)
	return served{op: op, res: res, err: err, lat: time.Since(t0)}
}

// submit posts op.copies copies of op at once and waits for all of them.
func (c *client) submit(ctx context.Context, op serveOp) []served {
	out := make([]served, op.copies)
	var wg sync.WaitGroup
	for i := 1; i < len(out); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = c.do(ctx, op)
		}(i)
	}
	out[0] = c.do(ctx, op)
	wg.Wait()
	return out
}

// window runs the timed closed loop and returns every submission, the
// number handed out and jobs_per_s (see rounds.rate). The first failure
// outside the named fault class ends it with an error.
func (c *client) window(ctx context.Context, in *serveInputs, clients int, d time.Duration) ([]served, int, float64, error) {
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	r := newRounds(roundSize, d)
	per := make([][]served, clients)
	err := runClosedLoop(ctx, clients, r, func(cl, k int) {
		for _, s := range c.submit(ctx, in.op(k)) {
			if err := classify(s); err != nil {
				cancel(fmt.Errorf("%s: %w", s.op.id, err))
			}
			per[cl] = append(per[cl], s)
		}
	})
	if err != nil {
		return nil, 0, 0, context.Cause(ctx)
	}
	var all []served
	for _, p := range per {
		all = append(all, p...)
	}
	rate := r.rate(roundsPerBlock, submitsPerRound-narrowPerRound)
	return all, r.total() / roundSize * submitsPerRound, rate, nil
}

// daemon is a running linqd subprocess.
type daemon struct {
	cmd     *exec.Cmd
	address string
	stdout  *bytes.Buffer
	done    chan error
}

// startDaemon starts linqd with default flags apart from its listen
// address and a journal in dir written without the per-append fsync, and
// returns once it answers /healthz. With the fsync, run-to-run spread of
// throughput on a shared virtual disk reached 30%, beyond any usable
// bound; the traced run times fsynced appends directly instead.
func startDaemon(ctx context.Context, bin, dir string) (*daemon, error) {
	addrFile := filepath.Join(dir, "addr")
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-journal-dir", filepath.Join(dir, "journal"), "-journal-nosync")
	// The daemon dies with this process, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, stdout: &bytes.Buffer{}, done: make(chan error, 1)}
	cmd.Stdout = d.stdout // read only after Wait returns
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start linqd: %w", err)
	}
	go func() { d.done <- cmd.Wait() }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			d.address = string(b)
			break
		}
		select {
		case err := <-d.done:
			d.done <- err
			return nil, fmt.Errorf("linqd exited during start-up: %v", err)
		case <-ctx.Done():
			d.kill()
			return nil, ctx.Err()
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, errors.New("linqd did not write its address within 30s")
		}
	}
	if _, err := healthz(d.address); err != nil {
		d.kill()
		return nil, err
	}
	return d, nil
}

// kill stops the daemon without a drain and waits for it (error paths).
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.done
}

// stop sends SIGTERM and waits for a clean exit: status 0 after a drain.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-d.done:
		if err != nil {
			return fmt.Errorf("linqd exited uncleanly on SIGTERM: %v", err)
		}
	case <-time.After(60 * time.Second):
		d.kill()
		return errors.New("linqd did not exit within 60s of SIGTERM")
	}
	if !strings.Contains(d.stdout.String(), "drained:") {
		return fmt.Errorf("linqd exited without reporting its drain: %q", d.stdout.String())
	}
	return nil
}

// jobStats mirrors the job counters /healthz reports.
type jobStats struct {
	Submitted int64 `json:"submitted"`
	Deduped   int64 `json:"deduped"`
	Done      int64 `json:"done"`
	Failed    int64 `json:"failed"`
	Cancelled int64 `json:"cancelled"`
	Queued    int   `json:"queued"`
	Running   int   `json:"running"`
}

func healthz(addr string) (jobStats, error) {
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		return jobStats{}, fmt.Errorf("healthz: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return jobStats{}, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	var body struct {
		Jobs jobStats `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return jobStats{}, fmt.Errorf("healthz: %w", err)
	}
	return body.Jobs, nil
}

// stack is what a linqd-serve set-up leaves running: the subprocess, or
// the in-process stack of the traced run.
type stack interface {
	addr() string
	close() error
}

func (d *daemon) addr() string { return d.address }
func (d *daemon) close() error { return d.stop() }

func runServe(ctx context.Context, cfg config) (*outcome, error) {
	clients := workers()
	var (
		in     serveInputs
		st     stack
		cl     *client
		warm   []served
		traced *inproc
		rep    int
	)
	teardown := func() error {
		cl.http.CloseIdleConnections()
		return st.close()
	}
	setup, err := timeSetup(cfg.reps(5), func() error {
		rep++
		in = newServeInputs(cfg.seed)
		dir := filepath.Join(cfg.workDir, fmt.Sprintf("setup-%d", rep))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		var err error
		if cfg.trace {
			traced, err = startInproc(dir)
			st = traced
		} else {
			st, err = startDaemon(ctx, cfg.linqd, dir)
		}
		if err != nil {
			return err
		}
		var rt http.RoundTripper
		if traced != nil {
			rt = traced.transport
		}
		cl = newClient(st.addr(), rt, 2*clients)
		ops := in.distinctOps()
		warm = make([]served, len(ops))
		// A zero-length window hands out exactly one round: every op once.
		return runClosedLoop(ctx, clients, newRounds(len(ops), 0), func(_, k int) { warm[k] = cl.do(ctx, ops[k]) })
	}, teardown)
	if err != nil {
		if st != nil {
			_ = st.close()
		}
		return nil, err
	}
	out := &outcome{}
	for _, s := range warm {
		if err := classify(s); err != nil {
			_ = teardown()
			return nil, fmt.Errorf("warm-up %s: %w", s.op.id, err)
		}
	}

	var (
		pid        int
		cpu0, cpu1 time.Duration
	)
	if d, ok := st.(*daemon); ok {
		pid = d.cmd.Process.Pid
		if cpu0, err = procCPU(pid); err != nil {
			_ = teardown()
			return nil, err
		}
	}
	if traced != nil {
		traced.begin()
	}
	start := time.Now()
	all, attempted, rate, err := cl.window(ctx, &in, clients, time.Duration(cfg.seconds*float64(time.Second)))
	window := time.Since(start)
	if err != nil {
		_ = teardown()
		return nil, err
	}
	var rss float64
	if pid != 0 {
		if cpu1, err = procCPU(pid); err == nil {
			rss, err = peakRSSMB(fmt.Sprint(pid))
		}
		if err != nil {
			_ = teardown()
			return nil, err
		}
	}
	if traced != nil {
		traced.finish(out, all)
	}

	// Every accepted job must reach a terminal state.
	js, err := healthz(st.addr())
	if err != nil {
		_ = teardown()
		return nil, err
	}
	if js.Queued != 0 || js.Running != 0 || js.Cancelled != 0 || js.Done+js.Failed != js.Submitted {
		out.fail("daemon job counters after the window are not all terminal: %+v", js)
	}
	if err := teardown(); err != nil {
		out.fail("%v", err)
	}
	if traced != nil {
		if err := traced.journalLayers(out, cfg.workDir); err != nil {
			return nil, err
		}
	}

	names := []string{classHot, classDistinct, classNarrow}
	out.classes = make([]opClass, len(names))
	idx := map[string]int{}
	for i, name := range names {
		out.classes[i].Name = "linqd-serve/" + name
		idx[name] = i
	}
	var lat []float64
	completed := 0
	for _, s := range all {
		c := &out.classes[idx[s.op.class]]
		c.Attempted++
		if err := classify(s); err != nil {
			return nil, fmt.Errorf("%s: %w", s.op.id, err)
		}
		if s.err != nil {
			c.Failed++
			continue
		}
		completed++
		if s.op.class != classNarrow {
			lat = append(lat, ms(s.lat))
		}
	}
	if len(all) != attempted {
		out.fail("%d submissions recorded, %d handed out", len(all), attempted)
	}
	checkServe(ctx, out, warm, all)
	fmt.Fprintf(cfg.log, "linqd-serve: %d submissions (%d completed, %d deduped in flight; %.1f jobs/s over the window, %.1f the median block) on %d clients in %.2fs; latency p50 %.3f ms, p90 %.3f ms, p99 %.3f ms\n",
		len(all), completed, js.Deduped, float64(completed)/window.Seconds(), rate, clients, window.Seconds(), median(lat), percentile(lat, 90), percentile(lat, 99))
	if cfg.trace {
		fillIdleLayers(out)
		return out, nil
	}

	out.set("jobs_per_s", rate, "1/s")
	out.set("job_p50_ms", median(lat), "ms")
	out.set("cpu_ms_per_job", ms(cpu1-cpu0)/float64(completed), "ms")
	out.set("setup_s", setup, "s")
	out.set("peak_rss_mb", rss, "MB")
	var m model
	for _, s := range warm {
		if s.res != nil {
			m.swaps += s.res.TILT.SwapCount
			m.moves += s.res.TILT.Moves
			m.execUs += s.res.ExecTimeUs
		}
	}
	setModel(out, m)
	return out, nil
}

// classify accepts a submission that succeeded, or a narrow one that
// failed on the named fault; anything else is an error.
func classify(s served) error {
	if s.err == nil {
		if s.res == nil || s.res.TILT == nil {
			return errors.New("result without TILT statistics")
		}
		return nil
	}
	if s.op.class == classNarrow && strings.Contains(s.err.Error(), narrowFault) {
		return nil
	}
	return s.err
}

// normalized encodes a result without the fields that legitimately differ
// between executions of one circuit: the compile-cache counters and the
// pass wall-clock timings.
func normalized(r *tilt.Result) ([]byte, error) {
	c := *r
	c.Cache = nil
	if r.TILT != nil {
		t := *r.TILT
		t.TSwap, t.TMove = 0, 0
		t.Passes = append([]tilt.PassTiming(nil), t.Passes...)
		for i := range t.Passes {
			t.Passes[i].Wall = 0
		}
		c.TILT = &t
	}
	return json.Marshal(&c)
}

// checkServe compares every completed result with an in-process Execute
// of the same circuit under linqd's default options, and requires repeated
// submissions of a repeated-set circuit to return byte-identical results.
func checkServe(ctx context.Context, out *outcome, warm, all []served) {
	want := map[string][]byte{}
	full := map[string][]byte{}
	be := tilt.NewTILT(tilt.WithDevice(0, 16))
	for _, s := range append(append([]served(nil), warm...), all...) {
		if s.err != nil {
			continue
		}
		w, ok := want[s.op.id]
		if !ok {
			ref, err := tilt.Execute(ctx, be, s.op.circ)
			if err != nil {
				// A narrow circuit the daemon now runs: compare against
				// a head that fits its chain.
				n := s.op.circ.NumQubits()
				ref, err = tilt.Execute(ctx, tilt.NewTILT(tilt.WithDevice(0, n)), s.op.circ)
			}
			if err != nil {
				out.fail("%s: in-process execute failed: %v", s.op.id, err)
				want[s.op.id] = nil
				continue
			}
			if w, err = normalized(ref); err != nil {
				out.fail("%s: %v", s.op.id, err)
				continue
			}
			want[s.op.id] = w
		}
		got, err := normalized(s.res)
		if err != nil {
			out.fail("%s: %v", s.op.id, err)
			continue
		}
		if w != nil && !bytes.Equal(got, w) {
			out.fail("%s: daemon result differs from in-process execute:\n got %s\nwant %s", s.op.id, got, w)
		}
		if s.op.class != classHot {
			continue
		}
		b, err := json.Marshal(s.res)
		if err != nil {
			out.fail("%s: %v", s.op.id, err)
			continue
		}
		if f, ok := full[s.op.id]; !ok {
			full[s.op.id] = b
		} else if !bytes.Equal(f, b) {
			out.fail("%s: repeated submission returned a different result:\n got %s\nfirst %s", s.op.id, b, f)
		}
	}
}

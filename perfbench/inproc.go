package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	tilt "repro"
	"repro/internal/jobs"
	"repro/internal/journal"
	"repro/internal/linqhttp"
	"repro/internal/tracing"
)

// inproc is the traced linqd-serve stack: the same journal, job manager
// and HTTP server linqd assembles with its default flags, built in this
// process so the calls into each layer can be timed from here.
type inproc struct {
	reg       *tilt.MetricsRegistry
	jnl       *journal.Journal
	jnlDir    string
	tiltBE    *tilt.TILTBackend
	mgr       *jobs.Manager
	srv       *http.Server
	ln        net.Listener
	serveErr  chan error
	tr        *tracer
	transport *timedTransport

	// Counters at the start of the timed window.
	start        time.Time
	stats0       jobs.Stats
	hits0, miss0 int64
	appends0     int64
}

// timedBackend wraps a backend and records a span around every Compile and
// Simulate.
type timedBackend struct {
	tilt.Backend
	tr *tracer
}

func (b timedBackend) Compile(ctx context.Context, c *tilt.Circuit) (*tilt.Artifact, error) {
	t0 := time.Now()
	a, err := b.Backend.Compile(ctx, c)
	b.tr.record("backend.compile", -1, t0, time.Since(t0))
	return a, err
}

func (b timedBackend) Simulate(ctx context.Context, a *tilt.Artifact) (*tilt.Result, error) {
	t0 := time.Now()
	r, err := b.Backend.Simulate(ctx, a)
	b.tr.record("backend.simulate", -1, t0, time.Since(t0))
	return r, err
}

// timedTransport times the client's HTTP exchanges with the server, body
// included, and counts the bytes of result responses.
type timedTransport struct {
	base        http.RoundTripper
	tr          *tracer
	resultBytes atomic.Int64
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	d := time.Since(t0)
	resp.Body = io.NopCloser(bytes.NewReader(body))
	switch {
	case req.Method == http.MethodPost && req.URL.Path == "/v1/jobs":
		t.tr.record("http.submit", -1, t0, d)
	case req.Method == http.MethodGet && strings.HasSuffix(req.URL.Path, "/result"):
		t.tr.record("http.result", -1, t0, d)
		t.resultBytes.Add(int64(len(body)))
	}
	return resp, nil
}

// appendOps are the journal record kinds linq_journal_appends_total counts.
var appendOps = []journal.Op{journal.OpSubmitted, journal.OpStarted, journal.OpFinalized, journal.OpCancelled}

func (s *inproc) appends() int64 {
	v := s.reg.CounterVec("linq_journal_appends_total", "", "op")
	var n int64
	for _, op := range appendOps {
		n += v.With(string(op)).Value()
	}
	return n
}

// startInproc builds the stack over a journal in dir, without per-append
// fsync as in the untraced run, and serves it on a loopback listener.
func startInproc(dir string) (*inproc, error) {
	s := &inproc{reg: tilt.NewMetricsRegistry(), tr: newTracer(), jnlDir: filepath.Join(dir, "journal")}
	s.transport = &timedTransport{base: &http.Transport{MaxIdleConnsPerHost: 2 * workers()}, tr: s.tr}
	tracer := tracing.New("linqd", tracing.WithMaxTraces(512), tracing.WithMetrics(s.reg))
	var err error
	if s.jnl, err = journal.Open(s.jnlDir, journal.WithMetrics(s.reg), journal.WithoutSync()); err != nil {
		return nil, err
	}
	common := []tilt.Option{tilt.WithDevice(0, 16), tilt.WithMetrics(s.reg)}
	s.tiltBE = tilt.NewTILT(append(common, tilt.WithCompileCache(128))...)
	s.mgr, err = jobs.New([]jobs.Pool{
		{Name: "TILT", Backend: timedBackend{s.tiltBE, s.tr}},
		{Name: "QCCD", Backend: timedBackend{tilt.NewQCCD(common...), s.tr}},
		{Name: "IdealTI", Backend: timedBackend{tilt.NewIdealTI(common...), s.tr}},
	}, jobs.WithStoreSize(1024), jobs.WithMetrics(s.reg), jobs.WithTracer(tracer), jobs.WithJournal(s.jnl))
	if err != nil {
		s.jnl.Close()
		return nil, err
	}
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	h := linqhttp.NewServer(s.mgr, s.reg, linqhttp.WithLogger(logger), linqhttp.WithTracer(tracer))
	if s.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		_ = s.mgr.Shutdown(context.Background())
		s.jnl.Close()
		return nil, err
	}
	s.srv = &http.Server{Handler: h.Routes()}
	s.serveErr = make(chan error, 1)
	go func() { s.serveErr <- s.srv.Serve(s.ln) }()
	return s, nil
}

func (s *inproc) addr() string { return s.ln.Addr().String() }

// close stops intake, drains the job manager, and closes the journal.
func (s *inproc) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.serveErr; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	err = errors.Join(err, s.mgr.Shutdown(ctx))
	return errors.Join(err, s.jnl.Close())
}

// begin snapshots the counters and clears the warm-up's spans.
func (s *inproc) begin() {
	s.tr.reset()
	s.transport.resultBytes.Store(0)
	s.start = time.Now()
	s.stats0 = s.mgr.Stats()
	if cs, ok := s.tiltBE.CacheStats(); ok {
		s.hits0, s.miss0 = cs.Hits, cs.Misses
	}
	s.appends0 = s.appends()
}

// finish reports the per-layer metrics of the timed window; all holds
// every submission of the window.
func (s *inproc) finish(out *outcome, all []served) {
	lt := s.tr.aggregate()
	n := float64(len(all))
	st := s.mgr.Stats()
	submitted := float64(st.Submitted - s.stats0.Submitted)
	if cs, ok := s.tiltBE.CacheStats(); ok {
		hits, misses := float64(cs.Hits-s.hits0), float64(cs.Misses-s.miss0)
		out.set("cache.hit_ratio", hits/(hits+misses), "ratio")
	}
	out.set("jobs.dedup_ratio", float64(st.Deduped-s.stats0.Deduped)/submitted, "ratio")
	var wait time.Duration
	waited := 0
	for _, j := range s.mgr.List("") {
		if !j.Submitted.Before(s.start) && !j.Started.IsZero() {
			wait += j.Started.Sub(j.Submitted)
			waited++
		}
	}
	if waited > 0 {
		out.set("jobs.queue_wait_ms", ms(wait)/float64(waited), "ms")
	}
	out.set("backend.compile_ms", ms(lt.total["backend.compile"])/n, "ms")
	out.set("backend.simulate_ms", ms(lt.total["backend.simulate"])/n, "ms")
	out.set("journal.appends_per_job", float64(s.appends()-s.appends0)/submitted, "count")
	out.set("http.submit_ms", ms(lt.total["http.submit"])/n, "ms")
	out.set("http.result_ms", ms(lt.total["http.result"])/n, "ms")
	out.set("http.result_bytes", float64(s.transport.resultBytes.Load())/n, "bytes")
}

// journalLayers times Append directly: the records the window wrote are
// appended again to a fresh journal with per-append fsync and to one
// without, and the mean time per append of each is reported. Call it after
// close.
func (s *inproc) journalLayers(out *outcome, workDir string) error {
	const maxRecords = 1024
	segs, err := filepath.Glob(filepath.Join(s.jnlDir, "*.wal"))
	if err != nil {
		return err
	}
	var recs []journal.Record
	for _, seg := range segs {
		rs, err := journal.ReadSegment(seg)
		if err != nil {
			return err
		}
		recs = append(recs, rs...)
	}
	if len(recs) > maxRecords {
		recs = recs[len(recs)-maxRecords:]
	}
	if len(recs) == 0 {
		return errors.New("journal: the window left no records to replay")
	}
	for _, mode := range []struct {
		name string
		opts []journal.Option
	}{
		{"journal.append_sync_us", nil},
		{"journal.append_nosync_us", []journal.Option{journal.WithoutSync()}},
	} {
		dir, err := os.MkdirTemp(workDir, "append-")
		if err != nil {
			return err
		}
		j, err := journal.Open(dir, mode.opts...)
		if err != nil {
			return err
		}
		t0 := time.Now()
		for _, r := range recs {
			if err := j.Append(r); err != nil {
				j.Close()
				return fmt.Errorf("journal append: %w", err)
			}
		}
		d := time.Since(t0)
		if err := j.Close(); err != nil {
			return err
		}
		out.set(mode.name, float64(d.Microseconds())/float64(len(recs)), "us")
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	return nil
}

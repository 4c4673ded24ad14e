package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/bits"
	"repro/internal/cluster"
	"repro/internal/cluster/wire"
	"repro/internal/fft"
	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/parfft"
	"repro/internal/pencil"
	"repro/internal/permute"
	"repro/internal/plancache"
	"repro/internal/server"
)

// The traced run sends each request down a ladder of public entry
// points, from the socket to the kernel, one request at a time. Every
// call sits in an obs span recorded here, outside the program, and a
// layer's self time is its rung minus the rung below. A ladder is a list
// of levels; a level holds one rung, except the bottom one, whose rungs
// are siblings that together make up the level above's inner work.

// rung is one call of a request's ladder.
type rung struct {
	span string // span name
	// metric is the per-layer metric this rung feeds: its self time, or
	// its whole time on the bottom level.
	metric string
	run    func(ctx context.Context) error
	// check verifies what run produced; it runs after the span ends.
	check func() error
}

// ladderMetrics are the traced run's per-layer metrics in report order.
// A layer a workload never reaches reads 0.
var ladderMetrics = []string{
	"http.self_us",
	"server.handler_self_us",
	"server.execute_self_us",
	"plancache.lookup_us",
	"fft.kernel_us",
	"fft.plan2d_us",
	"pencil.coord_self_us",
	"cluster.wire_self_us",
	"parfft.run_us",
	"netsim.route_us",
}

// ladder is the in-process deployment the traced run climbs.
type ladder struct {
	w     workload
	srv   *server.Server // the entry node
	post  *poster
	close func()

	// fft2d: the ring's pencil transport and an in-process stand-in.
	members   []string
	ringT     pencil.Transport
	localT    pencil.Transport
	localWork []string
}

// ladderResult is what the traced run measured.
type ladderResult struct {
	metrics   []metric
	requests  int
	spansFile string
}

// newLadder starts in-process servers shaped like the workload's
// deployment, with fftd's shipped defaults (request log included).
func newLadder(w workload) (*ladder, error) {
	cfg := server.Config{
		Logger:       slog.New(slog.NewJSONHandler(io.Discard, nil)),
		PencilMemCap: w.pencilMem,
	}
	l := &ladder{w: w}
	if w.nodes == 1 {
		l.srv = server.New(cfg)
		hs := httptest.NewServer(l.srv.Handler())
		l.post = newPoster(hs.URL, 1)
		l.close = func() {
			l.post.close()
			hs.Close()
			l.srv.Close()
		}
		return l, nil
	}
	t, err := load.StartInprocCluster(w.nodes, cfg)
	if err != nil {
		return nil, err
	}
	l.srv = t.Server()
	// The embedded HTTPTarget is named by its base URL.
	l.post = newPoster(t.HTTPTarget.Name(), 1)
	l.close = func() {
		l.post.close()
		_ = t.Close()
	}
	c := l.srv.Cluster()
	l.members = c.Registry().Ring().Members()
	l.ringT = &cluster.PencilTransport{Client: c, Self: c.Registry().Self(), Local: l.srv.PencilWorker()}
	workers := map[string]*pencil.Worker{}
	for i := 0; i < w.nodes; i++ {
		name := fmt.Sprintf("local-%d", i)
		workers[name] = pencil.NewWorker(pencil.WorkerConfig{MemCap: w.pencilMem, Plans: plancache.New(64)})
		l.localWork = append(l.localWork, name)
	}
	l.localT = pencil.NewLocalTransport(false, workers)
	return l, nil
}

func (l *ladder) checkHTTP(pl *payload, code int, body []byte) error {
	if code != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", pl.req.Cohort, code, body)
	}
	return pl.verify(body, l.w, nil)
}

// levels builds one request's ladder.
func (l *ladder) levels(pl *payload) [][]rung {
	var code int
	var body []byte
	var rec *httptest.ResponseRecorder
	top := [][]rung{
		{{
			span: "http", metric: "http.self_us",
			run: func(ctx context.Context) (err error) {
				code, body, err = l.post.post(ctx, 0, pl.path, pl.body)
				return err
			},
			check: func() error { return l.checkHTTP(pl, code, body) },
		}},
		{{
			span: "server.handler", metric: "server.handler_self_us",
			run: func(ctx context.Context) error {
				rec = httptest.NewRecorder()
				req := httptest.NewRequestWithContext(ctx, http.MethodPost, pl.path, bytes.NewReader(pl.body))
				req.Header.Set("Content-Type", "application/json")
				l.srv.Handler().ServeHTTP(rec, req)
				return nil
			},
			check: func() error { return l.checkHTTP(pl, rec.Code, rec.Body.Bytes()) },
		}},
	}
	switch pl.req.Op {
	case load.OpSimulate:
		return append(top, l.simulateRungs(pl))
	case load.OpFFT2D:
		return append(top, l.pencilRungs(pl)...)
	default:
		return append(top, l.transformRungs(pl)...)
	}
}

// transformRungs: executeOp through the cluster executor, then its two
// parts, the plan-cache lookup and the kernel.
func (l *ladder) transformRungs(pl *payload) [][]rung {
	op := wire.TransformOp{Input: pl.in}
	switch pl.req.Op {
	case load.OpIFFT:
		op.Inverse = true
	case load.OpFFTNoReorder:
		op.NoReorder = true
	case load.OpReal:
		op = wire.TransformOp{Real: true, RealInput: pl.realIn}
	}
	exec := l.srv.ClusterExecutor()
	cache := l.srv.PlanCache()
	var execOut []complex128
	var plan any
	out := make([]complex128, len(pl.want))
	n := len(pl.in)
	return [][]rung{
		{{
			span: "server.execute", metric: "server.execute_self_us",
			run: func(ctx context.Context) (err error) {
				execOut, err = exec(ctx, &op)
				return err
			},
			check: func() error { return pl.verifyOutput(execOut) },
		}},
		{
			{
				span: "plancache.lookup", metric: "plancache.lookup_us",
				run: func(context.Context) (err error) {
					switch {
					case pl.req.Op == load.OpReal:
						plan, err = cache.RealPlan(len(pl.realIn))
					case !bits.IsPow2(n):
						plan, err = cache.AnyPlan(n)
					default:
						plan, err = cache.ComplexPlan(n)
					}
					return err
				},
				check: func() error { return nil },
			},
			{
				span: "fft.kernel", metric: "fft.kernel_us",
				run: func(context.Context) error {
					switch p := plan.(type) {
					case *fft.RealPlan:
						p.ForwardInto(out, pl.realIn)
					case *fft.AnyPlan:
						if op.Inverse {
							p.Inverse(out, pl.in)
						} else {
							p.Transform(out, pl.in)
						}
					case *fft.Plan:
						switch {
						case op.Inverse:
							p.Inverse(out, pl.in)
						case op.NoReorder:
							p.TransformNoReorder(out, pl.in)
						default:
							p.Transform(out, pl.in)
						}
					}
					return nil
				},
				check: func() error { return pl.verifyOutput(out) },
			},
		},
	}
}

// simulateRungs: the work /v1/simulate does below its handler. The fft
// scenario runs parfft on a fresh machine plus the serial plan lookup
// and transform the server checks max_error against; the random
// scenario routes the permutation.
func (l *ladder) simulateRungs(pl *payload) []rung {
	r := pl.req
	rng := rand.New(rand.NewSource(r.Seed))
	if r.Scenario != "fft" {
		perm := permute.Random(r.N, rng)
		var steps int
		return []rung{{
			span: "netsim.route", metric: "netsim.route_us",
			run: func(context.Context) error {
				m, err := buildMachine(r.Network, r.N)
				if err != nil {
					return err
				}
				steps, err = m.Route(perm)
				return err
			},
			check: func() error {
				if steps != pl.sim.route {
					return fmt.Errorf("%s: route took %d steps, want %d", r.Cohort, steps, pl.sim.route)
				}
				return nil
			},
		}}
	}
	x := make([]complex128, r.N)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	cache := l.srv.PlanCache()
	var res *parfft.Result
	var plan *fft.Plan
	want := make([]complex128, r.N)
	// The serial transform runs first: parfft's check compares with it.
	return []rung{
		{
			span: "plancache.lookup", metric: "plancache.lookup_us",
			run: func(context.Context) (err error) {
				plan, err = cache.ComplexPlan(r.N)
				return err
			},
			check: func() error { return nil },
		},
		{
			span: "fft.kernel", metric: "fft.kernel_us",
			run: func(context.Context) error {
				plan.Transform(want, x)
				return nil
			},
			check: func() error { return nil },
		},
		{
			span: "parfft.run", metric: "parfft.run_us",
			run: func(context.Context) error {
				m, err := buildMachine(r.Network, r.N)
				if err != nil {
					return err
				}
				res, err = parfft.Run(m, x, parfft.Options{Plans: cache.Source()})
				return err
			},
			check: func() error {
				if res.ButterflySteps != pl.sim.steps.ButterflySteps || res.BitReversalSteps != pl.sim.steps.BitReversalSteps {
					return fmt.Errorf("%s: parfft took %d+%d steps", r.Cohort, res.ButterflySteps, res.BitReversalSteps)
				}
				if d := fft.MaxAbsDiff(res.Output, want); !(d <= 1e-9) {
					return fmt.Errorf("%s: parfft differs from the serial plan by %g", r.Cohort, d)
				}
				return nil
			},
		},
	}
}

// pencilRungs: the same pencil run over the ring's transport, over an
// in-process transport, and as one serial Plan2D.
func (l *ladder) pencilRungs(pl *payload) [][]rung {
	r := pl.req
	shape := pencil.Shape2D(r.Rows, r.Cols)
	run := func(t pencil.Transport, workers []string, out []complex128) func(context.Context) error {
		return func(ctx context.Context) error {
			_, err := pencil.Run(ctx, pencil.Config{
				Shape: shape, Workers: workers, Transport: t, MemCap: l.w.pencilMem,
			}, pencil.SliceSource{Data: pl.in, Cols: r.Cols}, pencil.SliceSink{Data: out, Cols: r.Cols})
			return err
		}
	}
	ringOut := make([]complex128, len(pl.in))
	localOut := make([]complex128, len(pl.in))
	serialOut := make([]complex128, len(pl.in))
	var plan *fft.Plan2D
	return [][]rung{
		{{
			span: "pencil.cluster", metric: "cluster.wire_self_us",
			run:   run(l.ringT, l.members, ringOut),
			check: func() error { return pl.verifyOutput(ringOut) },
		}},
		{{
			span: "pencil.local", metric: "pencil.coord_self_us",
			run:   run(l.localT, l.localWork, localOut),
			check: func() error { return pl.verifyOutput(localOut) },
		}},
		{{
			span: "fft.plan2d", metric: "fft.plan2d_us",
			run: func(context.Context) (err error) {
				if plan == nil {
					if plan, err = fft.NewPlan2D(r.Rows, r.Cols); err != nil {
						return err
					}
				}
				plan.Transform(serialOut, pl.in)
				return nil
			},
			check: func() error { return pl.verifyOutput(serialOut) },
		}},
	}
}

// climb runs one request down its ladder, each rung inside a child span
// of root. With a nil root it just runs the rungs, recording nothing.
func climb(ctx context.Context, root *obs.Span, levels [][]rung) error {
	for _, level := range levels {
		for _, r := range level {
			if root != nil {
				if err := warm(ctx, r); err != nil {
					return err
				}
			}
			sp := root.Child(r.span)
			err := r.run(ctx)
			sp.End()
			if err == nil {
				err = r.check()
			}
			if err != nil {
				return fmt.Errorf("rung %s: %w", r.span, err)
			}
		}
	}
	return nil
}

// warm puts every rung in the same state before it is timed: a full GC,
// so no rung pays for the garbage of the one before, then one untimed
// run, so its code and data are in cache.
func warm(ctx context.Context, r rung) error {
	runtime.GC()
	if err := r.run(ctx); err != nil {
		return fmt.Errorf("rung %s: %w", r.span, err)
	}
	return nil
}

// runLadder is the traced run: the first cfg.ladderN requests of the
// workload's trace (fewer once cfg.ladderBudget has passed), each down
// its whole ladder, plus one bare http call per request to measure the
// tracing overhead. The spans go to a Chrome trace file.
func runLadder(ctx context.Context, prep *prepared, cfg runConfig) (*ladderResult, error) {
	l, err := newLadder(prep.w)
	if err != nil {
		return nil, err
	}
	defer l.close()
	// Warm the in-process servers and the ladder's own plans first: every
	// cohort and the first few requests, unrecorded.
	for _, pl := range prep.warmup(16) {
		if err := climb(ctx, nil, l.levels(pl)); err != nil {
			return nil, fmt.Errorf("ladder warmup: %w", err)
		}
	}

	tr := obs.New()
	var reqs []climbed
	var overhead []float64
	deadline := time.Now().Add(cfg.ladderBudget)
	n := min(cfg.ladderN, len(prep.pay))
	for i := 0; i < n && time.Now().Before(deadline); i++ {
		pl := prep.pay[i]
		levels := l.levels(pl)
		root := tr.Start("request").SetDetail(fmt.Sprintf("%d %s", i, pl.req.Cohort))
		reqs = append(reqs, climbed{root: root.ID(), shape: shapeOf(levels)})

		// The overhead pair: the http rung timed once inside its span and
		// once bare, in alternating order; answers are checked off the clock.
		top := levels[0][0]
		if err := warm(ctx, top); err != nil {
			return nil, err
		}
		var dSpan, dBare time.Duration
		for k := 0; k < 2; k++ {
			traced := (i+k)%2 == 0
			t0 := time.Now()
			var sp *obs.Span
			if traced {
				sp = root.Child(top.span)
			}
			err := top.run(ctx)
			sp.End()
			if traced {
				dSpan = time.Since(t0)
			} else {
				dBare = time.Since(t0)
			}
			if err == nil {
				err = top.check()
			}
			if err != nil {
				return nil, fmt.Errorf("rung %s: %w", top.span, err)
			}
		}
		overhead = append(overhead, 100*float64(dSpan-dBare)/float64(dBare))

		if err := climb(ctx, root, levels[1:]); err != nil {
			return nil, err
		}
		root.End()
	}

	spans := tr.Snapshot()
	res := &ladderResult{requests: len(reqs)}
	if res.spansFile, err = writeSpans(cfg.spans, prep.w.name, spans); err != nil {
		return nil, err
	}
	values := selfTimes(spans, reqs)
	for _, name := range ladderMetrics {
		res.metrics = append(res.metrics, metric{name, median(values[name]), "us"})
	}
	res.metrics = append(res.metrics, metric{"trace.overhead_pct", median(overhead), "%"})
	return res, nil
}

// climbed records one traced request: its root span and the names of
// its ladder's rungs, level by level.
type climbed struct {
	root  int
	shape [][]rung // span and metric only
}

func shapeOf(levels [][]rung) [][]rung {
	shape := make([][]rung, len(levels))
	for k, level := range levels {
		for _, r := range level {
			shape[k] = append(shape[k], rung{span: r.span, metric: r.metric})
		}
	}
	return shape
}

// selfTimes turns the recorded spans into per-request values of each
// ladder metric, in microseconds: a rung's duration minus its level
// below's (the sum of that level's rungs), or its own duration on the
// bottom level.
func selfTimes(spans []obs.SpanData, reqs []climbed) map[string][]float64 {
	byRoot := map[int]map[string]time.Duration{}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		if byRoot[s.Parent] == nil {
			byRoot[s.Parent] = map[string]time.Duration{}
		}
		byRoot[s.Parent][s.Name] += s.Duration
	}
	values := map[string][]float64{}
	for _, c := range reqs {
		d := byRoot[c.root]
		total := func(level []rung) time.Duration {
			var t time.Duration
			for _, r := range level {
				t += d[r.span]
			}
			return t
		}
		for k, level := range c.shape {
			for _, r := range level {
				v := d[r.span]
				if k+1 < len(c.shape) {
					v -= total(c.shape[k+1])
				}
				values[r.metric] = append(values[r.metric], float64(v)/float64(time.Microsecond))
			}
		}
	}
	return values
}

// writeSpans writes the traced run's spans as Chrome trace_event JSON.
func writeSpans(dir, workload string, spans []obs.SpanData) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "spans-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	var epoch time.Time
	if len(spans) > 0 {
		epoch = spans[0].Start
	}
	if err := obs.WriteChromeSpans(f, spans, epoch); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

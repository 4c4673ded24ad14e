package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync/atomic"
	"time"
)

// requestTimeout bounds one request; a percentile that lands on a
// failed request reads as this value.
const requestTimeout = 30 * time.Second

// metric is one named measurement with its unit.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is one workload run.
type result struct {
	w          workload
	attempted  int
	failed     int // transport errors, non-2xx answers and wrong answers
	wrong      int
	firstWrong error
	endToEnd   []metric
	perLayer   []metric // only for traced runs
	traced     int      // requests the traced run climbed
	spansFile  string
}

// runConfig is what a run needs beyond the workload.
type runConfig struct {
	seed   int64
	window time.Duration
	traced bool
	fftd   string
	spans  string // directory for the Chrome span file
	// fleets is how many fleets a run sets up and times in turn, each for
	// window/fleets; setup_s is the median of their set-ups.
	fleets int
	// The traced run climbs at most ladderN requests, and starts no new
	// one once ladderBudget has passed.
	ladderN      int
	ladderBudget time.Duration
}

// poster sends request bodies over one keep-alive connection per client.
type poster struct {
	base    string
	clients []*http.Client
	bufs    []bytes.Buffer
}

func newPoster(base string, clients int) *poster {
	p := &poster{base: base, bufs: make([]bytes.Buffer, clients)}
	for c := 0; c < clients; c++ {
		p.clients = append(p.clients, &http.Client{
			Timeout: requestTimeout,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		})
	}
	return p
}

// post sends one body on client c. The returned body aliases c's
// buffer and is valid until c's next post.
func (p *poster) post(ctx context.Context, c int, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := p.clients[c].Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	buf := &p.bufs[c]
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes(), err
}

func (p *poster) close() {
	for _, c := range p.clients {
		c.CloseIdleConnections()
	}
}

// postChecked sends one payload and checks its answer.
func (p *poster) postChecked(ctx context.Context, c int, pl *payload, w workload) error {
	code, body, err := p.post(ctx, c, pl.path, pl.body)
	if err != nil {
		return fmt.Errorf("%s: %w", pl.req.Cohort, err)
	}
	if code != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", pl.req.Cohort, code, body)
	}
	return pl.verify(body, w, nil)
}

// setUp starts the workload's daemons, waits for readiness and warms
// them up: every cohort once, then the first warmupRequests of the
// trace, every answer checked. It returns the fleet, a poster whose
// connections are already open, and the elapsed time.
func setUp(ctx context.Context, prep *prepared, fftd string) (*fleet, *poster, time.Duration, error) {
	w := prep.w
	start := time.Now()
	f, err := startFleet(fftd, w.nodes, w.pencilMem)
	if err != nil {
		return nil, nil, 0, err
	}
	po := newPoster(f.procs[0].base, w.clients)
	fail := func(err error) (*fleet, *poster, time.Duration, error) {
		po.close()
		f.stop()
		return nil, nil, 0, fmt.Errorf("set-up: %w", err)
	}
	if err := f.waitReady(ctx); err != nil {
		return fail(err)
	}
	for i, pl := range prep.warmup(warmupRequests) {
		if err := po.postChecked(ctx, i%w.clients, pl, w); err != nil {
			return fail(err)
		}
	}
	return f, po, time.Since(start), nil
}

// runWorkload measures one workload on cfg.fleets fresh fleets in turn:
// each is set up, timed for its part of the window and torn down, and
// the run's numbers pool all the parts. A fleet's speed is settled when
// it starts: within one fleet the thirds of a window agree to a few
// percent, while one fleet can run a fifth slower than the next. Pooling
// several fleets narrows the spread between runs, which a longer window
// on one fleet does not. The parts follow each other through the trace,
// so a run still sends a whole window's distinct requests. When traced,
// the in-process ladder follows.
func runWorkload(ctx context.Context, w workload, cfg runConfig) (*result, error) {
	prep, err := prepare(w, cfg.seed, cfg.window)
	if err != nil {
		return nil, err
	}
	var setups []float64
	var shares []*share
	part := cfg.window / time.Duration(cfg.fleets)
	next := 0
	for k := 0; k < cfg.fleets; k++ {
		f, po, d, err := setUp(ctx, prep, cfg.fftd)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		s, err := timeFleet(ctx, prep, f, po, next, time.Duration(k)*part, part)
		po.close()
		f.stop()
		if err != nil {
			return nil, err
		}
		shares = append(shares, s)
		next += s.lr.issued
	}
	res := summarize(w, shares)
	res.endToEnd = append([]metric{{"setup_s", median(setups), "s"}}, res.endToEnd...)
	if cfg.traced {
		lr, err := runLadder(ctx, prep, cfg)
		if err != nil {
			return nil, err
		}
		res.perLayer = append(res.perLayer, lr.metrics...)
		res.traced = lr.requests
		res.spansFile = lr.spansFile
	}
	return res, nil
}

// share is what one fleet's part of the timed window recorded.
type share struct {
	lr         loopResult // wrong answers already count as misses
	wrong      int
	firstWrong error
	ticks      int64    // daemon CPU over the share
	use        counters // daemon counter deltas over the share
	rssMB      float64
	bodyBytes  int64
	acc        answerStats
}

// timeFleet drives a warm fleet for window with the trace from request
// lo on: a closed loop sends the requests in turn, an open loop those the
// schedule has due in [from, from+window). Every 8th answer is checked
// once the window has closed, so decoding it never competes with the
// daemons for the CPU.
func timeFleet(ctx context.Context, prep *prepared, f *fleet, po *poster, lo int, from, window time.Duration) (*share, error) {
	w := prep.w
	before, err := f.sample(ctx)
	if err != nil {
		return nil, err
	}
	ticks0, err := f.cpuTicks()
	if err != nil {
		return nil, err
	}

	type answer struct {
		j    int // index in the share
		body []byte
	}
	sampled := make([][]answer, w.clients) // one list per client: sends share no lock
	var bodyBytes atomic.Int64
	send := func(ctx context.Context, c, j int) bool {
		i := lo + j
		pl := prep.pay[i]
		code, body, err := po.post(ctx, c, pl.path, pl.body)
		bodyBytes.Add(int64(len(pl.body) + len(body)))
		if err != nil || code != http.StatusOK {
			return false
		}
		if i%checkEvery == 0 {
			sampled[c] = append(sampled[c], answer{j, append([]byte(nil), body...)})
		}
		return true
	}

	s := &share{}
	if w.rate > 0 {
		hi := sort.Search(len(prep.due), func(i int) bool { return prep.due[i] >= from+window })
		due := make([]time.Duration, hi-lo)
		for j := range due {
			due[j] = prep.due[lo+j] - from
		}
		s.lr = openLoop(ctx, due, w.clients, send)
	} else {
		s.lr = closedLoop(ctx, len(prep.pay)-lo, window, w.clients, send)
	}
	ticks1, err := f.cpuTicks()
	if err != nil {
		return nil, err
	}
	after, err := f.sample(ctx)
	if err != nil {
		return nil, err
	}
	if w.rate == 0 && lo+s.lr.issued == len(prep.pay) {
		return nil, fmt.Errorf("%s: the %d prepared requests ran out before the window closed; raise maxRate", w.name, len(prep.pay))
	}
	if s.rssMB, err = f.rssPeakMB(); err != nil {
		return nil, err
	}
	s.ticks = ticks1 - ticks0
	s.use = after.add(before, -1)
	s.bodyBytes = bodyBytes.Load()
	for _, answers := range sampled {
		for _, a := range answers {
			if err := prep.pay[lo+a.j].verify(a.body, w, &s.acc); err != nil {
				s.lr.lat[a.j] = missed
				s.wrong++
				if s.firstWrong == nil {
					s.firstWrong = fmt.Errorf("request %d: %w", lo+a.j, err)
				}
			}
		}
	}
	return s, nil
}

// summarize pools the shares of one run into its metrics: percentiles
// over every request of every share, rates and per-request costs over
// their sums, and the median fleet's memory peak.
func summarize(w workload, shares []*share) *result {
	res := &result{w: w}
	var lat, late []time.Duration
	var elapsed time.Duration
	var ticks, bodyBytes int64
	var use counters
	var acc answerStats
	var rss []float64
	for _, s := range shares {
		res.attempted += s.lr.issued
		res.wrong += s.wrong
		if res.firstWrong == nil {
			res.firstWrong = s.firstWrong
		}
		lat = append(lat, s.lr.lat[:s.lr.issued]...)
		if s.lr.late != nil {
			late = append(late, s.lr.late[:s.lr.issued]...)
		}
		elapsed += s.lr.elapsed
		ticks += s.ticks
		bodyBytes += s.bodyBytes
		use = use.add(s.use, 1)
		acc.simAnswers += s.acc.simAnswers
		acc.simSteps += s.acc.simSteps
		acc.simCommBytes += s.acc.simCommBytes
		rss = append(rss, s.rssMB)
	}
	for _, d := range lat {
		if d == missed {
			res.failed++
		}
	}
	ms := func(d time.Duration) float64 {
		if d == missed {
			d = requestTimeout
		}
		return float64(d) / float64(time.Millisecond)
	}
	sorted := sortedCopy(lat)
	n := float64(max(res.attempted, 1))
	ok := float64(res.attempted - res.failed)
	res.endToEnd = []metric{
		{"latency_p50_ms", ms(quantile(sorted, 0.50)), "ms"},
		{"latency_p99_ms", ms(quantile(sorted, 0.99)), "ms"},
		{"throughput_rps", ok / elapsed.Seconds(), "req/s"},
		{"ok_frac", ok / n, "ratio"},
		{"cpu_ms_per_req", float64(ticks) * (1000.0 / clockTicks) / n, "ms"},
		{"rss_peak_mb", median(rss), "MB"},
	}

	lateP99 := 0.0
	if late != nil {
		lateP99 = ms(quantile(sortedCopy(late), 0.99))
	}
	perRun := func(v int64) float64 {
		if use.pencilRuns == 0 {
			return 0
		}
		return float64(v) / float64(use.pencilRuns)
	}
	perAnswer := func(v int64) float64 {
		if acc.simAnswers == 0 {
			return 0
		}
		return float64(v) / float64(acc.simAnswers)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	res.perLayer = []metric{
		{"server.body_kb_per_req", float64(bodyBytes) / 1024 / n, "KB"},
		{"server.gc_per_kreq", use.gcCycles / n * 1000, "count"},
		{"server.pool_rejected", float64(use.poolRejected), "count"},
		{"server.coalesced", float64(use.coalesced), "count"},
		{"plancache.hit_ratio", ratio(float64(use.cacheHits), float64(use.cacheHits+use.cacheMisses)), "ratio"},
		{"plancache.misses", float64(use.cacheMisses), "count"},
		{"pencil.rpcs_per_req", perRun(use.pencilRPCs), "count"},
		{"pencil.waves_per_req", perRun(use.pencilWaves), "count"},
		{"pencil.wire_kb_per_req", perRun(use.pencilWire) / 1024, "KB"},
		{"pencil.roofline_ratio", ratio(float64(use.pencilWire), float64(use.pencilFloor)), "ratio"},
		{"netsim.steps_per_req", perAnswer(acc.simSteps), "count"},
		{"netsim.comm_kb_per_req", perAnswer(acc.simCommBytes) / 1024, "KB"},
		{"load.late_p99_ms", lateP99, "ms"},
	}
	return res
}

// Package server is the HTTP service layer of the repository: the
// long-lived counterpart to the one-shot cmd/ tools. It serves FFT
// transforms (single and batch) from a shared plan cache, runs network
// simulations and the paper's comparison tables on demand, and exposes
// health and metrics endpoints.
//
// Architecture: every compute-bearing request is dispatched to a
// bounded worker pool (backpressure instead of unbounded goroutines),
// carries a per-request context timeout, and is wrapped in
// panic-recovery middleware so a worker panic becomes one 500 response
// rather than a dead daemon. Identical concurrent simulate/compare
// queries are coalesced into a single execution. Shutdown is graceful:
// the HTTP listener stops accepting, in-flight requests finish, then
// the pool drains.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/wire"
	"repro/internal/obs"
	"repro/internal/pencil"
	"repro/internal/plancache"
)

// Config tunes the service; zero values mean the documented defaults.
type Config struct {
	// Workers is the worker-pool size; 0 means runtime.GOMAXPROCS(0).
	Workers int
	// QueueDepth bounds jobs waiting for a worker; 0 means 256.
	QueueDepth int
	// RequestTimeout is the per-request context deadline; 0 means 30s.
	RequestTimeout time.Duration
	// PlanCacheSize is the plan-cache capacity in plans; 0 means 64.
	PlanCacheSize int
	// MaxTransformLen rejects transforms longer than this; 0 means 2^22.
	MaxTransformLen int
	// MaxBatch rejects /v1/fft batches larger than this; 0 means 4096.
	MaxBatch int
	// PencilMemCap bounds per-node band memory for /v1/fft2d pencil
	// runs; larger transforms stream out of core. 0 means
	// pencil.DefaultMemCap (256 MiB).
	PencilMemCap int64
	// MaxSimNodes rejects simulations larger than this; 0 means 2^14.
	MaxSimNodes int
	// Logger, when non-nil, receives one structured record per finished
	// request (id, route, status, elapsed). Nil disables request logging.
	Logger *slog.Logger
	// SlowThreshold enables span tracing on compute-bearing routes:
	// requests slower than the threshold have their span tree captured
	// into the slow-trace ring served at GET /v1/debug/slow. Zero
	// disables both tracing and capture (the default; benchmarks and
	// tests see the untraced fast path).
	SlowThreshold time.Duration
	// TraceSampleEvery, when > 0, traces and captures every Nth
	// compute-bearing request regardless of speed — a low-cost way to
	// keep example traces flowing on a healthy service.
	TraceSampleEvery int
	// SlowRingSize bounds the slow-trace ring; 0 means 32.
	SlowRingSize int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.PlanCacheSize <= 0 {
		c.PlanCacheSize = 64
	}
	if c.MaxTransformLen <= 0 {
		c.MaxTransformLen = 1 << 22
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 4096
	}
	if c.MaxSimNodes <= 0 {
		c.MaxSimNodes = 1 << 14
	}
	if c.SlowRingSize <= 0 {
		c.SlowRingSize = 32
	}
	return c
}

// Server is the fftd service: handlers plus the shared plan cache,
// worker pool, coalescing group and metrics.
type Server struct {
	cfg      Config
	cache    *plancache.Cache
	pool     *workerPool
	metrics  *Metrics
	flights  flightGroup
	mux      *http.ServeMux
	slow     *slowRing
	rids     *requestIDs
	reqSeq   atomic.Int64 // drives TraceSampleEvery
	draining atomic.Bool  // set by StartDrain; read by /readyz and cluster pings

	// cluster, when set, shards transforms across the ring instead of
	// always executing locally. Written once at startup (SetCluster)
	// before the listener starts accepting.
	cluster *cluster.Client

	// pencilWorker serves pencil band sub-operations: local /v1/fft2d
	// stages, and (in cluster mode) shards deposited by peers via
	// cluster.Node. pencilTransport carries the coordinator's
	// sub-operations — in-process single-node, over the cluster client
	// once SetCluster installs one.
	pencilWorker    *pencil.Worker
	pencilMetrics   *pencil.Metrics
	pencilTransport pencil.Transport
}

// New creates a ready-to-serve Server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		cache:   plancache.New(cfg.PlanCacheSize),
		pool:    newWorkerPool(cfg.Workers, cfg.QueueDepth),
		metrics: newMetrics(),
		slow:    newSlowRing(cfg.SlowRingSize),
		rids:    newRequestIDs(),
	}
	s.pencilWorker = pencil.NewWorker(pencil.WorkerConfig{
		MemCap: cfg.PencilMemCap,
		Plans:  s.cache,
	})
	s.pencilMetrics = &pencil.Metrics{}
	s.pencilTransport = pencil.NewLocalTransport(false, map[string]*pencil.Worker{
		localPencilWorker: s.pencilWorker,
	})
	s.mux = http.NewServeMux()
	// Compute-bearing routes are traceable; the cheap read-only
	// endpoints are not (tracing a metrics scrape tells nobody
	// anything, and sampling would fill the ring with them).
	s.route("POST /v1/fft", s.handleFFT, true)
	s.route("POST /v1/fft2d", s.handleFFT2D, true)
	s.route("POST /v1/simulate", s.handleSimulate, true)
	s.route("GET /v1/compare", s.handleCompare, true)
	s.route("GET /healthz", s.handleHealthz, false)
	s.route("GET /readyz", s.handleReadyz, false)
	s.route("GET /metrics", s.handleMetrics, false)
	s.route("GET /v1/debug/slow", s.handleSlow, false)
	return s
}

// Handler returns the root handler; cmd/fftd mounts it on an
// http.Server and tests mount it on httptest.
func (s *Server) Handler() http.Handler { return s.mux }

// PlanCache exposes the shared plan cache (tests assert hit counters).
func (s *Server) PlanCache() *plancache.Cache { return s.cache }

// MetricsSnapshot returns the current counters, as served by /metrics.
// In cluster mode the snapshot carries the routing client's counters.
func (s *Server) MetricsSnapshot() Snapshot {
	snap := s.metrics.snapshot(s.cache, s.pool)
	if s.cluster != nil {
		cm := s.cluster.Metrics()
		snap.Cluster = &cm
	}
	pm := s.pencilMetrics.Snapshot()
	ws := s.pencilWorker.Stats()
	snap.Pencil = &pm
	snap.PencilWorker = &ws
	return snap
}

// StartDrain marks the server draining: /readyz starts answering 503
// and (in cluster mode) peers see ready=false on their next heartbeat,
// so new traffic routes away while in-flight requests finish. Call it
// when shutdown is requested, before http.Server.Shutdown.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain has been called — readiness as
// distinct from liveness (/healthz stays 200 throughout a drain).
func (s *Server) Draining() bool { return s.draining.Load() }

// SetCluster installs the cluster routing client. Call it once during
// startup, before the HTTP listener accepts requests. It also switches
// /v1/fft2d onto the cluster: pencil sub-operations ride the client's
// pooled connections to every ring member, with the self-owned shard
// served in-process by this server's pencil worker.
func (s *Server) SetCluster(c *cluster.Client) {
	s.cluster = c
	s.pencilTransport = &cluster.PencilTransport{
		Client: c,
		Self:   c.Registry().Self(),
		Local:  s.pencilWorker,
	}
}

// PencilWorker exposes the server's pencil executor so cmd/fftd can
// hand it to cluster.NodeConfig — peers' coordinators then deposit
// bands into the same worker /v1/fft2d uses locally.
func (s *Server) PencilWorker() *pencil.Worker { return s.pencilWorker }

// Cluster returns the installed cluster client, or nil.
func (s *Server) Cluster() *cluster.Client { return s.cluster }

// ClusterExecutor returns this server's local transform executor: the
// plan-cache-backed function a cluster.Node runs forwarded transforms
// through, and the cluster.Client runs self-owned shards through. The
// results are byte-identical to the single-node serving path because it
// IS the single-node serving path.
func (s *Server) ClusterExecutor() cluster.Executor {
	return func(ctx context.Context, op *wire.TransformOp) ([]complex128, error) {
		return s.executeOp(ctx, op, nil)
	}
}

// Close drains the worker pool: queued jobs finish, workers exit. Call
// it after the HTTP listener has stopped accepting requests (e.g. after
// http.Server.Shutdown returns); requests arriving afterwards fail with
// 503.
func (s *Server) Close() { s.pool.close() }

// statusError carries an HTTP status through the handler plumbing.
type statusError struct {
	status int
	msg    string
}

func (e *statusError) Error() string { return e.msg }

// badRequest builds a 400-class statusError.
func badRequest(format string, args ...any) error {
	return &statusError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// unavailable builds a 503-class statusError — transient server-side
// conditions a client may retry, as distinct from caller errors.
func unavailable(format string, args ...any) error {
	return &statusError{status: http.StatusServiceUnavailable, msg: fmt.Sprintf(format, args...)}
}

// maxBodyBytes bounds a transform request body, derived from
// MaxTransformLen: the JSON wire form of one complex sample
// ("[<float>,<float>]") is under 64 bytes even at full float64
// precision, and 64 KiB covers the request envelope. Any valid request
// fits; a hostile or runaway body is cut off at the reader instead of
// buffered into memory.
func (s *Server) maxBodyBytes() int64 {
	return int64(s.cfg.MaxTransformLen)*64 + 64<<10
}

// maxSimulateBodyBytes bounds a /v1/simulate body. A simulation request
// is a handful of scalars; 64 KiB leaves ample room for whitespace.
const maxSimulateBodyBytes = 64 << 10

// decodeBody decodes a JSON request body capped at limit bytes.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	return decodeJSON(http.MaxBytesReader(w, r.Body, limit), v)
}

// decodeJSON decodes one JSON value from a capped body. A body over the
// cap maps to 413 Request Entity Too Large; malformed JSON (including a
// body truncated by the cap mid-token on some paths) stays a 400.
func decodeJSON(body io.Reader, v any) error {
	if err := json.NewDecoder(body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return &statusError{
				status: http.StatusRequestEntityTooLarge,
				msg:    fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit),
			}
		}
		return badRequest("decode: %v", err)
	}
	return nil
}

// httpStatus maps a handler error onto a response code: explicit
// statusErrors pass through, pool drain and worker panics become 503
// and 500, timeouts 504, everything else 500.
func httpStatus(err error) int {
	switch e := err.(type) {
	case *statusError:
		return e.status
	case *panicError:
		return http.StatusInternalServerError
	}
	if err == nil {
		return http.StatusOK
	}
	if errors.Is(err, ErrDraining) {
		return http.StatusServiceUnavailable
	}
	if errors.Is(err, ErrSaturated) {
		return http.StatusTooManyRequests
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout
	}
	if errors.Is(err, context.Canceled) {
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// statusRecorder holds a handler's status and body until the route
// middleware has recorded the request's telemetry, so that by the time
// a client has its response, /metrics and /v1/debug/slow already show
// the request. Headers go straight into the underlying writer's map;
// nothing reaches the client before send.
type statusRecorder struct {
	w           http.ResponseWriter
	status      int
	wroteHeader bool
	body        *bytes.Buffer // pooled; nil until the first Write
	err         error         // the error writeError rendered, if any
}

func (r *statusRecorder) Header() http.Header { return r.w.Header() }

func (r *statusRecorder) WriteHeader(code int) {
	if !r.wroteHeader {
		r.status, r.wroteHeader = code, true
	}
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	if r.body == nil {
		r.body = getBuffer()
	}
	return r.body.Write(p)
}

// reset discards what the handler wrote.
func (r *statusRecorder) reset() {
	r.status, r.wroteHeader, r.err = http.StatusOK, false, nil
	if r.body != nil {
		r.body.Reset()
	}
}

// send writes the held response to the client and releases the body.
func (r *statusRecorder) send() {
	var body []byte
	if r.body != nil {
		body = r.body.Bytes()
	}
	r.w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	r.w.WriteHeader(r.status)
	// A failed write means the client has gone; there is no one left to
	// tell.
	_, _ = r.w.Write(body)
	if r.body != nil {
		putBuffer(r.body)
		r.body = nil
	}
}

var bufferPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getBuffer() *bytes.Buffer {
	b := bufferPool.Get().(*bytes.Buffer)
	return b
}

func putBuffer(b *bytes.Buffer) {
	b.Reset()
	bufferPool.Put(b)
}

// route mounts a handler wrapped in the service middleware: request
// IDs, request counting, latency observation, per-request timeout,
// structured logging, span tracing with slow-trace capture (traceable
// routes only), and panic recovery. The handler's response is held
// until the metric and the slow trace are recorded, then sent; the log
// line, which the client does not need, comes last.
func (s *Server) route(pattern string, h http.HandlerFunc, traceable bool) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := s.rids.next()
		w.Header().Set("X-Request-ID", id)
		rec := &statusRecorder{w: w, status: http.StatusOK}
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()

		// A request is traced when slow-capture is armed (we cannot know
		// up front that it will be fast) or the sampler picks it. The
		// common untraced configuration pays one branch here and nil
		// tracer no-ops below.
		var tr *obs.Tracer
		var root *obs.Span
		sampled := false
		if traceable {
			if n := s.cfg.TraceSampleEvery; n > 0 && s.reqSeq.Add(1)%int64(n) == 0 {
				sampled = true
			}
			if sampled || s.cfg.SlowThreshold > 0 {
				tr = obs.New()
				root = tr.Start(pattern).SetCat(obs.CatServer).SetDetail("request " + id)
				tr.SetParent(root)
				ctx = obs.WithTracer(ctx, tr)
				ctx = obs.WithSpan(ctx, root)
			}
		}
		serveRecovered(h, rec, r.WithContext(ctx))

		elapsed := time.Since(start)
		s.metrics.observe(pattern, rec.status, elapsed)
		if errors.Is(rec.err, ErrDraining) {
			s.metrics.drained.Add(1)
		}
		var ro obs.Rollup
		if tr != nil {
			root.End()
			spans := tr.Snapshot()
			ro = obs.RollupOf(spans)
			if sampled || (s.cfg.SlowThreshold > 0 && elapsed >= s.cfg.SlowThreshold) {
				ct := CapturedTrace{
					RequestID:     id,
					Route:         pattern,
					Status:        rec.status,
					Start:         start,
					DurationMS:    float64(elapsed) / float64(time.Millisecond),
					Sampled:       sampled,
					WireBytesSent: ro.BytesSent,
					WireBytesRecv: ro.BytesRecv,
					RemoteSpans:   ro.RemoteSpans,
					Spans:         spans,
				}
				if tid := tr.TraceID(); tid != 0 {
					ct.TraceID = fmt.Sprintf("%016x", tid)
				}
				s.slow.add(ct)
				s.metrics.slowCaptured.Add(1)
			}
		}
		rec.send()

		if l := s.cfg.Logger; l != nil {
			// One record per request. Traced requests widen it into the
			// canonical "wide event": the whole request story — stage
			// timings by span category, wire byte counts, remote span
			// count, trace ID — on a single queryable line.
			attrs := []slog.Attr{
				slog.String("id", id),
				slog.String("route", pattern),
				slog.Int("status", rec.status),
				slog.Duration("elapsed", elapsed),
			}
			if tr != nil {
				if tid := tr.TraceID(); tid != 0 {
					attrs = append(attrs, slog.String("trace_id", fmt.Sprintf("%016x", tid)))
				}
				attrs = append(attrs,
					slog.Int("spans", ro.Spans),
					slog.Int("remote_spans", ro.RemoteSpans),
					slog.Int64("wire_bytes_sent", ro.BytesSent),
					slog.Int64("wire_bytes_recv", ro.BytesRecv),
				)
				if ro.Steps > 0 {
					attrs = append(attrs, slog.Int("steps", ro.Steps))
				}
				cats := make([]string, 0, len(ro.StageNs))
				for cat := range ro.StageNs {
					cats = append(cats, cat)
				}
				sort.Strings(cats)
				stages := make([]any, 0, len(cats))
				for _, cat := range cats {
					stages = append(stages, slog.Float64(cat, float64(ro.StageNs[cat])/1e6))
				}
				attrs = append(attrs, slog.Group("stage_ms", stages...))
			}
			l.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
		}
	})
}

// serveRecovered runs h. A handler panic (as opposed to a worker panic,
// which the pool converts) replaces whatever h wrote with a 500, rather
// than leaving a dead connection without a response line.
func serveRecovered(h http.HandlerFunc, rec *statusRecorder, r *http.Request) {
	defer func() {
		if p := recover(); p != nil {
			rec.reset()
			writeError(rec, fmt.Errorf("handler panic: %v", p))
		}
	}()
	h(rec, r)
}

// writeJSON renders v as compact JSON with status 200.
func writeJSON(w http.ResponseWriter, v any) {
	writeJSONStatus(w, http.StatusOK, v)
}

// writeJSONStatus renders v as compact JSON with the given status.
// json.Encoder marshals v whole before its one Write, and the status
// goes out with that Write, so a value encoding/json refuses (a
// non-finite float) has written nothing and becomes a 500 with an error
// body, not a 200 without one.
func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(statusWriter{w, status}).Encode(v); err != nil {
		writeError(w, fmt.Errorf("encode response: %w", err))
	}
}

// statusWriter writes its status just before the body.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w statusWriter) Write(p []byte) (int, error) {
	w.WriteHeader(w.status)
	return w.ResponseWriter.Write(p)
}

// errorBody is the uniform error response shape.
type errorBody struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

// retryAfterSeconds is the Retry-After hint on 429 responses. The pool
// drains its bounded queue in well under a second at every measured
// size, so one second is a safe, cheap-to-compute backoff hint.
const retryAfterSeconds = "1"

// writeError renders err with its mapped status code. Saturation
// rejections carry a Retry-After header so well-behaved clients back
// off instead of hammering a full queue. Inside a route it also hands
// err to the route's recorder, so the middleware counts a request
// refused while draining once, whichever route refused it.
func writeError(w http.ResponseWriter, err error) {
	if rec, ok := w.(*statusRecorder); ok {
		rec.err = err
	}
	status := httpStatus(err)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", retryAfterSeconds)
	}
	writeJSONStatus(w, status, errorBody{Error: err.Error(), Status: status})
}

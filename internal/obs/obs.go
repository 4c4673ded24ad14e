// Package obs is the repository's span-tracing and telemetry layer. A
// Tracer collects timed spans — named intervals with a parent, a
// duration and an attached data-transfer step cost — so one request or
// reproduction run can be attributed phase by phase: plan build, each
// butterfly rank, the terminal bit-reversal, every netsim machine
// operation. Spans are also the simulator's step accounting: each
// netsim operation is reported once, as a CatNetsim span carrying its
// step cost, and cmd/netsim -schedule lists those spans.
//
// The package is engineered around the disabled case: a nil *Tracer is
// a valid tracer whose Start returns a nil *Span, and every Span method
// is a no-op on a nil receiver. Instrumented hot paths therefore cost
// one pointer comparison per phase when tracing is off, and the
// plancache-hit serving path stays allocation-free.
//
// Tracers travel through context (WithTracer/FromContext), so the HTTP
// handlers of internal/server, the schedule driver of internal/parfft
// and the machines of internal/netsim all attach spans to the same tree
// without plumbing an extra parameter through every signature. Finished
// trees export as plain JSON (WriteJSON) or as Chrome trace_event JSON
// (WriteChromeTrace) that loads directly in chrome://tracing and
// Perfetto.
package obs

import (
	"context"
	"sync"
	"time"
)

// Well-known span categories. The category names the layer that emitted
// a span, so exporters can color by layer and tests can sum step costs
// per layer without string-matching span names.
const (
	CatServer  = "server"  // HTTP request handling
	CatPlan    = "plan"    // serial FFT plan construction
	CatParfft  = "parfft"  // distributed-FFT schedule phases
	CatNetsim  = "netsim"  // machine-level operations (exchanges, routes)
	CatCompute = "compute" // local computation phases
	CatCluster = "cluster" // cross-node RPCs (forwarding, remote execution)
)

// Tracer collects the spans of one traced unit of work (one HTTP
// request, one reproduction run). It is safe for concurrent use: a
// batch request's transforms may create and finish spans from many
// goroutines at once. A nil *Tracer is the disabled tracer.
type Tracer struct {
	mu      sync.Mutex
	clock   func() time.Time
	epoch   time.Time
	spans   []*Span
	nextID  int
	parent  *Span  // implicit parent for StartUnder; see SetParent
	traceID uint64 // cross-node correlation ID; 0 until set
}

// New creates an empty tracer using the real clock.
func New() *Tracer { return NewWithClock(time.Now) }

// NewWithClock creates a tracer reading time from clock; tests inject a
// deterministic clock so exported traces are byte-stable.
func NewWithClock(clock func() time.Time) *Tracer {
	t := &Tracer{clock: clock}
	t.epoch = clock()
	return t
}

// Span is one timed phase. All mutation goes through methods, which are
// nil-receiver-safe so disabled tracing needs no call-site guards.
type Span struct {
	t *Tracer

	id        int
	parent    int // 0 = root
	name      string
	cat       string
	detail    string
	steps     int
	bytesSent int64
	bytesRecv int64
	remote    bool // grafted from another node's tracer
	start     time.Time
	end       time.Time
	ended     bool
}

// Start opens a root span. On a nil tracer it returns nil, and the
// nil span silently absorbs the rest of the instrumentation calls.
func (t *Tracer) Start(name string) *Span { return t.start(0, name) }

// StartRPC opens a root span for an incoming cluster RPC — the
// receiving half of cross-node span propagation. It is Start with the
// cluster category pre-applied; the spanend analyzer knows it as a
// span-starting call, so a forgotten End on a node's RPC path is caught
// statically like any other leak.
func (t *Tracer) StartRPC(name string) *Span {
	return t.start(0, name).SetCat(CatCluster)
}

// SetTraceID stamps the tracer with a cross-node trace ID: the 64-bit
// correlation key a coordinator mints for one request and every node
// touching that request logs and propagates.
func (t *Tracer) SetTraceID(id uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.traceID = id
	t.mu.Unlock()
}

// TraceID returns the tracer's cross-node trace ID, or 0 when none has
// been set (single-node traces never need one).
func (t *Tracer) TraceID() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.traceID
}

func (t *Tracer) start(parent int, name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	s := &Span{t: t, id: t.nextID, parent: parent, name: name, start: t.clock()}
	t.spans = append(t.spans, s)
	return s
}

// Child opens a span parented under s.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.t.start(s.id, name)
}

// SetCat sets the span's category (one of the Cat constants) and
// returns s for chaining.
func (s *Span) SetCat(cat string) *Span {
	if s == nil {
		return nil
	}
	s.t.mu.Lock()
	s.cat = cat
	s.t.mu.Unlock()
	return s
}

// SetDetail attaches free-form detail text (e.g. "bit 7", "dimension 1").
func (s *Span) SetDetail(detail string) *Span {
	if s == nil {
		return nil
	}
	s.t.mu.Lock()
	s.detail = detail
	s.t.mu.Unlock()
	return s
}

// Detail returns the span's current detail text ("" for the nil span),
// so callers can append an outcome to a detail set at start.
func (s *Span) Detail() string {
	if s == nil {
		return ""
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	return s.detail
}

// AddSteps attaches data-transfer step cost to the span; repeated calls
// accumulate.
func (s *Span) AddSteps(n int) *Span {
	if s == nil {
		return nil
	}
	s.t.mu.Lock()
	s.steps += n
	s.t.mu.Unlock()
	return s
}

// AddBytes attaches wire-transfer byte counts to the span — bytes this
// side sent and received while the span was open. Repeated calls
// accumulate; cluster RPC spans record whole frame sizes here so a
// trace's byte totals reconcile exactly against the wire-level
// counters.
func (s *Span) AddBytes(sent, recv int64) *Span {
	if s == nil {
		return nil
	}
	s.t.mu.Lock()
	s.bytesSent += sent
	s.bytesRecv += recv
	s.t.mu.Unlock()
	return s
}

// ID returns the span's tracer-local identifier (0 for the nil span) —
// the value cross-node propagation sends as the remote side's parent.
func (s *Span) ID() int {
	if s == nil {
		return 0
	}
	return s.id
}

// StartTime returns the span's start instant (zero for the nil span).
func (s *Span) StartTime() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// End closes the span at the tracer clock's current time. Ending twice
// keeps the first end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	if !s.ended {
		s.end = s.t.clock()
		s.ended = true
	}
	s.t.mu.Unlock()
}

// SetParent sets the tracer's implicit parent — the span StartUnder
// attaches to — and returns the previous one so callers can restore it:
//
//	prev := tr.SetParent(rankSpan)
//	defer tr.SetParent(prev)
//
// This is how layers that cannot pass a span explicitly (the netsim
// Machine interface predates tracing) still nest correctly: the driver
// above them (parfft.Runner, a server handler) brackets each phase.
// Pass nil to clear. The implicit parent is per-tracer state; tracers
// are per-request/per-run, so concurrent requests do not interfere.
func (t *Tracer) SetParent(s *Span) (prev *Span) {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	prev, t.parent = t.parent, s
	t.mu.Unlock()
	return prev
}

// StartUnder opens a span under the tracer's implicit parent (or as a
// root span when none is set). Nil-safe like Start.
func (t *Tracer) StartUnder(name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	parent := 0
	if t.parent != nil {
		parent = t.parent.id
	}
	t.mu.Unlock()
	return t.start(parent, name)
}

// SpanData is the exported, immutable view of one span.
type SpanData struct {
	ID       int           `json:"id"`
	Parent   int           `json:"parent,omitempty"`
	Name     string        `json:"name"`
	Cat      string        `json:"cat,omitempty"`
	Detail   string        `json:"detail,omitempty"`
	Steps    int           `json:"steps,omitempty"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	// BytesSent and BytesRecv are the wire bytes this side of the span
	// moved (cluster RPC spans; 0 elsewhere).
	BytesSent int64 `json:"bytes_sent,omitempty"`
	BytesRecv int64 `json:"bytes_recv,omitempty"`
	// Remote marks a span grafted from another node's tracer during
	// cross-node trace assembly.
	Remote bool `json:"remote,omitempty"`
}

// Snapshot returns every span in creation order. Unfinished spans get
// the current clock time as a provisional end, so a snapshot taken
// mid-flight still has nonnegative durations.
func (t *Tracer) Snapshot() []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.clock()
	out := make([]SpanData, len(t.spans))
	for i, s := range t.spans {
		end := s.end
		if !s.ended {
			end = now
		}
		out[i] = SpanData{
			ID:        s.id,
			Parent:    s.parent,
			Name:      s.name,
			Cat:       s.cat,
			Detail:    s.detail,
			Steps:     s.steps,
			Start:     s.start,
			Duration:  end.Sub(s.start),
			BytesSent: s.bytesSent,
			BytesRecv: s.bytesRecv,
			Remote:    s.remote,
		}
	}
	return out
}

// Len returns the number of spans created so far.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// StepsByCat sums attached step costs per category. Tests use it to
// check that the netsim spans, the parfft phase spans and the machine's
// own step counter agree.
func (t *Tracer) StepsByCat() map[string]int {
	out := map[string]int{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		out[s.cat] += s.steps
	}
	return out
}

// ctxKey keys context values privately.
type ctxKey int

const (
	tracerKey ctxKey = iota
	spanKey
	requestIDKey
)

// WithRequestID returns a context carrying a cross-node request ID —
// the 64-bit ID from a cluster wire-frame header. A node handling a
// forwarded RPC stores the sender's ID here so spans opened anywhere
// below the RPC handler can correlate with the sender's span tree.
func WithRequestID(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, requestIDKey, id)
}

// RequestIDFrom returns the cross-node request ID carried by ctx, or 0
// when the work did not arrive over the cluster wire protocol.
func RequestIDFrom(ctx context.Context) uint64 {
	id, _ := ctx.Value(requestIDKey).(uint64)
	return id
}

// WithTracer returns a context carrying t.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey, t)
}

// FromContext returns the tracer carried by ctx, or nil — which is
// itself a valid (disabled) tracer, so callers never need to branch.
func FromContext(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey).(*Tracer)
	return t
}

// WithSpan returns a context carrying s as the current span, so nested
// layers can parent under it.
func WithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanKey, s)
}

// SpanFromContext returns the current span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey).(*Span)
	return s
}

// StartChild opens a span under the context's current span when one is
// present, and as a root span of the context's tracer otherwise. It is
// the usual entry point for instrumented layers: one call works whether
// or not a higher layer already opened a request-level span.
func StartChild(ctx context.Context, name string) *Span {
	if parent := SpanFromContext(ctx); parent != nil {
		return parent.Child(name)
	}
	return FromContext(ctx).Start(name)
}

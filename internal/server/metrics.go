package server

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/pencil"
	"repro/internal/plancache"
)

// latencyBounds are the cumulative upper bounds (seconds) of the
// per-route Prometheus latency histogram, spanning 100µs to 10s — the
// range between a plancache-hit transform and a near-timeout
// simulation. The implicit +Inf bucket is added at exposition time.
var latencyBounds = [numLatencyBounds]float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

const numLatencyBounds = 16

// bucketHist is a fixed-bound cumulative histogram in the Prometheus
// style: counts[i] counts observations <= latencyBounds[i]; the
// overflow slot counts the rest. All fields are atomics so observation
// never takes a lock.
type bucketHist struct {
	counts [numLatencyBounds + 1]atomic.Int64
	sumNs  atomic.Int64
	maxNs  atomic.Int64
}

func (h *bucketHist) observe(d time.Duration) {
	sec := d.Seconds()
	i := sort.SearchFloat64s(latencyBounds[:], sec)
	// SearchFloat64s returns the first i with bounds[i] >= sec, which is
	// exactly the Prometheus le-bucket; equality lands in the bucket.
	h.counts[i].Add(1)
	h.sumNs.Add(int64(d))
	for ns := int64(d); ; {
		cur := h.maxNs.Load()
		if ns <= cur || h.maxNs.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// bucketSnapshot is a consistent-enough read for exposition: cumulative
// counts per bound, the +Inf total, and the exact sum and max.
type bucketSnapshot struct {
	cumulative [numLatencyBounds + 1]int64
	count      int64 // == cumulative[numLatencyBounds]
	sum, max   time.Duration
}

func (h *bucketHist) snapshot() bucketSnapshot {
	var s bucketSnapshot
	for i := range h.counts {
		s.count += h.counts[i].Load()
		s.cumulative[i] = s.count
	}
	s.sum = time.Duration(h.sumNs.Load())
	s.max = time.Duration(h.maxNs.Load())
	return s
}

// add merges o into s; every route shares latencyBounds, so the
// buckets add.
func (s *bucketSnapshot) add(o bucketSnapshot) {
	for i := range s.cumulative {
		s.cumulative[i] += o.cumulative[i]
	}
	s.count += o.count
	s.sum += o.sum
	s.max = max(s.max, o.max)
}

// quantile estimates the q-th quantile (0 < q <= 1) the way
// Prometheus's histogram_quantile does: it finds the bucket holding
// rank q·count and interpolates linearly inside it. The +Inf bucket
// interpolates from the last finite bound up to the max, and no
// estimate exceeds the max.
func (s bucketSnapshot) quantile(q float64) time.Duration {
	if s.count == 0 {
		return 0
	}
	rank := q * float64(s.count)
	b := sort.Search(numLatencyBounds, func(i int) bool { return float64(s.cumulative[i]) >= rank })
	lo, below := 0.0, int64(0)
	if b > 0 {
		lo, below = latencyBounds[b-1], s.cumulative[b-1]
	}
	hi := s.max.Seconds()
	if b < numLatencyBounds {
		hi = latencyBounds[b]
	}
	est := lo + (hi-lo)*(rank-float64(below))/float64(s.cumulative[b]-below)
	return min(time.Duration(est*float64(time.Second)), s.max)
}

// Latency is the JSON /metrics latency object: request wall time over
// the process lifetime, all routes together, read from the per-route
// Prometheus buckets. Count, mean and max are exact; each quantile is
// interpolated inside its bucket (see bucketSnapshot.quantile).
type Latency struct {
	Count  int64   `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
}

func (s bucketSnapshot) latency() Latency {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	l := Latency{Count: s.count, MaxMS: ms(s.max)}
	if s.count > 0 {
		l.MeanMS = ms(s.sum) / float64(s.count)
		l.P50MS, l.P90MS, l.P99MS = ms(s.quantile(0.50)), ms(s.quantile(0.90)), ms(s.quantile(0.99))
	}
	return l
}

// Metrics holds the daemon's expvar-style counters: a latency bucket
// histogram per route (whose count is the route's request count),
// response classes, work counters, plan-cache statistics and queue
// depth. GET /metrics renders a Snapshot (JSON) or a Prometheus text
// exposition, depending on the Accept header.
type Metrics struct {
	start time.Time

	mu     sync.Mutex
	routes map[string]*bucketHist // by route pattern

	ok2xx, client4xx, server5xx atomic.Int64

	transforms  atomic.Int64 // individual transforms served by /v1/fft
	simulations atomic.Int64 // simulate runs actually executed
	coalesced   atomic.Int64 // requests that shared another's flight
	drained     atomic.Int64 // requests rejected during drain

	slowCaptured atomic.Int64 // requests captured into the slow-trace ring
}

func newMetrics() *Metrics {
	return &Metrics{
		start:  time.Now(),
		routes: make(map[string]*bucketHist),
	}
}

// route returns the route's histogram, creating it on first use.
func (m *Metrics) route(route string) *bucketHist {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.routes[route]
	if !ok {
		h = &bucketHist{}
		m.routes[route] = h
	}
	return h
}

// observe records one finished request: its route, response status
// class and wall time.
func (m *Metrics) observe(route string, status int, elapsed time.Duration) {
	m.route(route).observe(elapsed)
	switch {
	case status >= 500:
		m.server5xx.Add(1)
	case status >= 400:
		m.client4xx.Add(1)
	default:
		m.ok2xx.Add(1)
	}
}

// Snapshot is the JSON body of GET /metrics.
type Snapshot struct {
	UptimeSeconds float64          `json:"uptime_seconds"`
	Requests      map[string]int64 `json:"requests"`
	Responses     map[string]int64 `json:"responses"`
	Transforms    int64            `json:"transforms"`
	Simulations   int64            `json:"simulations"`
	Coalesced     int64            `json:"coalesced"`
	Drained       int64            `json:"drained"`
	SlowCaptured  int64            `json:"slow_captured"`
	PlanCache     plancache.Stats  `json:"plan_cache"`
	Queue         poolStats        `json:"queue"`
	Latency       Latency          `json:"latency"`
	// Cluster carries the routing client's counters; nil when the
	// server runs single-node.
	Cluster *cluster.ClientMetrics `json:"cluster,omitempty"`
	// Pencil counts /v1/fft2d coordinator activity; PencilWorker is the
	// local band worker's memory and job gauges.
	Pencil       *pencil.MetricsSnapshot `json:"pencil,omitempty"`
	PencilWorker *pencil.WorkerStats     `json:"pencil_worker,omitempty"`
	RouteOrder   []string                `json:"-"`
	// routeLatency is each route's bucket read, for the Prometheus
	// histogram; Requests and Latency are derived from the same reads.
	routeLatency map[string]bucketSnapshot
}

// snapshot gathers every counter consistently enough for monitoring.
// RouteOrder is derived inside the same critical section that reads the
// route map, so the sorted order always matches the Requests keys even
// if a first-seen route is racing in (the map read and the key listing
// cannot interleave with an insertion).
func (m *Metrics) snapshot(cache *plancache.Cache, pool *workerPool) Snapshot {
	s := Snapshot{
		UptimeSeconds: time.Since(m.start).Seconds(),
		Requests:      map[string]int64{},
		Responses: map[string]int64{
			"2xx": m.ok2xx.Load(),
			"4xx": m.client4xx.Load(),
			"5xx": m.server5xx.Load(),
		},
		Transforms:   m.transforms.Load(),
		Simulations:  m.simulations.Load(),
		Coalesced:    m.coalesced.Load(),
		Drained:      m.drained.Load(),
		SlowCaptured: m.slowCaptured.Load(),
		routeLatency: map[string]bucketSnapshot{},
	}
	var all bucketSnapshot
	m.mu.Lock()
	for route, h := range m.routes {
		hs := h.snapshot()
		s.routeLatency[route] = hs
		s.Requests[route] = hs.count
		s.RouteOrder = append(s.RouteOrder, route)
		all.add(hs)
	}
	m.mu.Unlock()
	s.Latency = all.latency()
	sort.Strings(s.RouteOrder)
	if cache != nil {
		s.PlanCache = cache.Stats()
	}
	if pool != nil {
		s.Queue = pool.stats()
	}
	return s
}

package obs

import (
	"math"
	"sort"
	"sync"
	"time"
)

// CohortLatency records latency samples keyed by a cohort label — the
// measurement side of heterogeneous load generation, where each request
// class (op kind × size) needs its own quantiles to show which cohort
// hits the wall first. All samples are retained exactly (a saturation
// sweep needs a faithful p999, which a windowed or bucketed histogram
// would blur), so one recorder should cover one bounded run, not a
// process lifetime. Safe for concurrent use.
type CohortLatency struct {
	mu      sync.Mutex
	cohorts map[string]*latencySeries
}

type latencySeries struct {
	samples []time.Duration
	sum     time.Duration
	max     time.Duration
}

// NewCohortLatency creates an empty recorder.
func NewCohortLatency() *CohortLatency {
	return &CohortLatency{cohorts: make(map[string]*latencySeries)}
}

// Observe records one sample under the cohort label.
func (c *CohortLatency) Observe(cohort string, d time.Duration) {
	c.mu.Lock()
	s, ok := c.cohorts[cohort]
	if !ok {
		s = &latencySeries{}
		c.cohorts[cohort] = s
	}
	s.samples = append(s.samples, d)
	s.sum += d
	if d > s.max {
		s.max = d
	}
	c.mu.Unlock()
}

// CohortLatencySnapshot is one cohort's order statistics: nearest-rank
// quantiles over every recorded sample.
type CohortLatencySnapshot struct {
	Cohort string  `json:"cohort"`
	Count  int     `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P99MS  float64 `json:"p99_ms"`
	P999MS float64 `json:"p999_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// snapshotSeries computes the statistics of one series; caller holds no
// locks (samples is a private copy).
func snapshotSeries(cohort string, samples []time.Duration, sum, max time.Duration) CohortLatencySnapshot {
	snap := CohortLatencySnapshot{Cohort: cohort, Count: len(samples)}
	if len(samples) == 0 {
		return snap
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	at := func(q float64) time.Duration {
		return samples[nearestRank(q, len(samples))]
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	snap.MeanMS = ms(sum / time.Duration(len(samples)))
	snap.P50MS = ms(at(0.50))
	snap.P99MS = ms(at(0.99))
	snap.P999MS = ms(at(0.999))
	snap.MaxMS = ms(max)
	return snap
}

// nearestRank maps quantile q onto a sorted slice of n samples: index
// ceil(q*n)-1, clamped. A plain floor int(q*n) would be one rank high
// whenever q*n is an exact integer (p50 of 4 samples is the 2nd).
func nearestRank(q float64, n int) int {
	if q <= 0 {
		return 0
	}
	if q >= 1 {
		return n - 1
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// Snapshot returns every cohort's statistics in sorted cohort order
// (deterministic artifact serialization).
func (c *CohortLatency) Snapshot() []CohortLatencySnapshot {
	c.mu.Lock()
	names := make([]string, 0, len(c.cohorts))
	copies := make(map[string]*latencySeries, len(c.cohorts))
	for name, s := range c.cohorts {
		names = append(names, name)
		cp := &latencySeries{sum: s.sum, max: s.max}
		cp.samples = append([]time.Duration(nil), s.samples...)
		copies[name] = cp
	}
	c.mu.Unlock()
	sort.Strings(names)
	out := make([]CohortLatencySnapshot, 0, len(names))
	for _, name := range names {
		cp := copies[name]
		out = append(out, snapshotSeries(name, cp.samples, cp.sum, cp.max))
	}
	return out
}

// Aggregate merges every cohort into one snapshot labelled "all": the
// whole-step latency distribution a knee detector runs on.
func (c *CohortLatency) Aggregate() CohortLatencySnapshot {
	c.mu.Lock()
	var all []time.Duration
	var sum, max time.Duration
	for _, s := range c.cohorts {
		all = append(all, s.samples...)
		sum += s.sum
		if s.max > max {
			max = s.max
		}
	}
	c.mu.Unlock()
	return snapshotSeries("all", all, sum, max)
}

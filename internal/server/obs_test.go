package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func postBody(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	resp, err := testClient.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestMetricsContentNegotiation checks GET /metrics serves JSON by
// default and the Prometheus text exposition under Accept: text/plain,
// and that the exposition passes the package's own parser-based lint.
func TestMetricsContentNegotiation(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Generate some traffic so counters and histograms are non-empty.
	resp := postBody(t, ts.URL+"/v1/fft", `{"input": [[1,0],[0,0],[0,0],[0,0]]}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fft status = %d", resp.StatusCode)
	}

	// Default: JSON.
	resp, err := testClient.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("default content type = %q, want JSON", ct)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("JSON body: %v", err)
	}

	// Accept: text/plain → Prometheus exposition.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if ct := resp2.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("prom content type = %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp2.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"fftd_requests_total{route=\"POST /v1/fft\"} 1",
		"fftd_transforms_total 1",
		"fftd_request_duration_seconds_bucket{route=\"POST /v1/fft\",le=\"+Inf\"} 1",
		"go_goroutines ",
		"fftd_plan_cache_hit_ratio ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if errs := obs.LintExposition(strings.NewReader(text)); len(errs) > 0 {
		t.Fatalf("exposition fails lint: %v", errs)
	}
}

// TestPromExpositionDeterministic checks two consecutive scrapes of an
// idle server emit families and route labels in identical order.
func TestPromExpositionDeterministic(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, body := range []string{`{"input": [[1,0],[0,0]]}`, `{"input": [[2,0],[0,0]]}`} {
		resp := postBody(t, ts.URL+"/v1/fft", body)
		resp.Body.Close()
	}
	structure := func() string {
		var buf bytes.Buffer
		if err := s.metrics.writePrometheus(&buf, s.metrics.snapshot(s.cache, s.pool)); err != nil {
			t.Fatal(err)
		}
		// Keep only structure: names and labels, not values (uptime and
		// runtime gauges move between calls).
		var lines []string
		for _, l := range strings.Split(buf.String(), "\n") {
			if i := strings.LastIndexByte(l, ' '); i > 0 && !strings.HasPrefix(l, "#") {
				l = l[:i]
			}
			lines = append(lines, l)
		}
		return strings.Join(lines, "\n")
	}
	if a, b := structure(), structure(); a != b {
		t.Fatal("consecutive expositions have different structure")
	}
}

// TestRequestIDAndLogging checks every response carries an
// X-Request-ID and the structured log line repeats it with route and
// status.
func TestRequestIDAndLogging(t *testing.T) {
	var logBuf bytes.Buffer
	s := New(Config{Workers: 1, Logger: slog.New(slog.NewJSONHandler(&logBuf, nil))})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postBody(t, ts.URL+"/v1/fft", `{"input": [[1,0],[0,0]]}`)
	resp.Body.Close()
	id := resp.Header.Get("X-Request-ID")
	if id == "" {
		t.Fatal("no X-Request-ID header")
	}

	var rec struct {
		Msg    string `json:"msg"`
		ID     string `json:"id"`
		Route  string `json:"route"`
		Status int    `json:"status"`
	}
	if err := json.Unmarshal(logBuf.Bytes(), &rec); err != nil {
		t.Fatalf("log line not JSON: %v (%q)", err, logBuf.String())
	}
	if rec.Msg != "request" || rec.ID != id || rec.Route != "POST /v1/fft" || rec.Status != 200 {
		t.Fatalf("log record = %+v, want id %q route POST /v1/fft status 200", rec, id)
	}
}

// TestSlowTraceCapture checks a request slower than the threshold shows
// up at GET /v1/debug/slow with its request ID and a span tree whose
// parfft phases carry the run's step costs.
func TestSlowTraceCapture(t *testing.T) {
	s := New(Config{Workers: 2, SlowThreshold: time.Nanosecond}) // everything is slow
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postBody(t, ts.URL+"/v1/simulate", `{"network":"hypercube","n":64,"scenario":"fft"}`)
	var sim SimulateResponse
	if err := json.NewDecoder(resp.Body).Decode(&sim); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := resp.Header.Get("X-Request-ID")

	resp, err := testClient.Get(ts.URL + "/v1/debug/slow")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var slow SlowTraces
	if err := json.NewDecoder(resp.Body).Decode(&slow); err != nil {
		t.Fatal(err)
	}
	if slow.Captured == 0 || len(slow.Traces) == 0 {
		t.Fatalf("no captured traces: %+v", slow)
	}
	var captured *CapturedTrace
	for i := range slow.Traces {
		if slow.Traces[i].RequestID == id {
			captured = &slow.Traces[i]
		}
	}
	if captured == nil {
		t.Fatalf("request %s not in slow ring", id)
	}
	if captured.Route != "POST /v1/simulate" {
		t.Errorf("captured route = %q", captured.Route)
	}

	// The span tree's per-phase step costs must sum to the run's totals:
	// parfft phase spans (ranks + bit-reversal) and netsim operation
	// spans each account for every data-transfer step once.
	sums := map[string]int{}
	roots := 0
	for _, sp := range captured.Spans {
		sums[sp.Cat] += sp.Steps
		if sp.Parent == 0 {
			roots++
			if sp.Cat != obs.CatServer {
				t.Errorf("root span %q has cat %q, want server", sp.Name, sp.Cat)
			}
		}
	}
	if roots != 1 {
		t.Errorf("span tree has %d roots, want 1", roots)
	}
	if sums[obs.CatParfft] != sim.TotalSteps {
		t.Errorf("parfft span steps = %d, simulation total = %d", sums[obs.CatParfft], sim.TotalSteps)
	}
	if sums[obs.CatNetsim] != sim.TotalSteps {
		t.Errorf("netsim span steps = %d, simulation total = %d", sums[obs.CatNetsim], sim.TotalSteps)
	}
}

// TestSampledTraceCapture checks TraceSampleEvery captures fast
// requests too, marked as sampled.
func TestSampledTraceCapture(t *testing.T) {
	s := New(Config{Workers: 1, TraceSampleEvery: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp := postBody(t, ts.URL+"/v1/fft", `{"input": [[1,0],[0,0]]}`)
	resp.Body.Close()

	traces := s.slow.list()
	if len(traces) != 1 {
		t.Fatalf("captured %d traces, want 1", len(traces))
	}
	if !traces[0].Sampled {
		t.Error("capture not marked sampled")
	}
	sawTransform := false
	for _, sp := range traces[0].Spans {
		if sp.Name == "transform" && sp.Cat == obs.CatCompute {
			sawTransform = true
		}
	}
	if !sawTransform {
		t.Error("no transform span in sampled capture")
	}
}

// TestTelemetryVisibleOnResponse: once a client has a response's
// headers, the request is already counted in /metrics and captured in
// /v1/debug/slow. The response body is far larger than net/http's write
// buffers, so its headers reach the client while the handler is still
// running; telemetry recorded after the write would lose this race.
func TestTelemetryVisibleOnResponse(t *testing.T) {
	_, ts := newTestServer(t, Config{TraceSampleEvery: 1})
	body, err := json.Marshal(FFTRequest{TransformSpec: TransformSpec{
		Input: randComplexInput(rand.New(rand.NewSource(5)), 4096),
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		resp := postBody(t, ts.URL+"/v1/fft", string(body))
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		id := resp.Header.Get("X-Request-ID")

		r, err := testClient.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		if n := decode[Snapshot](t, r).Requests["POST /v1/fft"]; n != int64(i) {
			t.Fatalf("after response %d, /metrics counts %d fft requests", i, n)
		}
		r, err = testClient.Get(ts.URL + "/v1/debug/slow")
		if err != nil {
			t.Fatal(err)
		}
		slow := decode[SlowTraces](t, r)
		if len(slow.Traces) == 0 || slow.Traces[0].RequestID != id {
			t.Fatalf("after response %d, /v1/debug/slow does not lead with request %s", i, id)
		}
	}
}

// TestUntracedRequestsSkipRing checks the zero-value Config captures
// nothing: no tracer is created, the ring stays empty.
func TestUntracedRequestsSkipRing(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp := postBody(t, ts.URL+"/v1/fft", `{"input": [[1,0],[0,0]]}`)
	resp.Body.Close()
	if traces := s.slow.list(); len(traces) != 0 {
		t.Fatalf("untraced config captured %d traces", len(traces))
	}
}

// TestSnapshotRouteOrderMatchesRequests checks RouteOrder and the
// Requests map always hold the same key set (the satellite fix: both
// are derived inside one critical section).
func TestSnapshotRouteOrderMatchesRequests(t *testing.T) {
	m := newMetrics()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			m.observe("GET /a", 200, time.Millisecond)
			m.observe("POST /b", 200, time.Millisecond)
		}
	}()
	for i := 0; i < 200; i++ {
		s := m.snapshot(nil, nil)
		if len(s.RouteOrder) != len(s.Requests) {
			t.Fatalf("RouteOrder has %d routes, Requests %d", len(s.RouteOrder), len(s.Requests))
		}
		for _, r := range s.RouteOrder {
			if _, ok := s.Requests[r]; !ok {
				t.Fatalf("RouteOrder names %q, missing from Requests", r)
			}
		}
	}
	<-done
}

// TestBucketHistCumulative checks observation placement and cumulative
// snapshots of the fixed-bound histogram.
func TestBucketHistCumulative(t *testing.T) {
	var h bucketHist
	h.observe(50 * time.Microsecond)  // <= 0.0001
	h.observe(100 * time.Microsecond) // == 0.0001 → same bucket (le is inclusive)
	h.observe(30 * time.Millisecond)  // <= 0.05
	h.observe(time.Minute)            // +Inf overflow
	s := h.snapshot()
	if s.cumulative[0] != 2 {
		t.Errorf("le=0.0001 cumulative = %d, want 2", s.cumulative[0])
	}
	if got := s.cumulative[numLatencyBounds]; got != 4 {
		t.Errorf("+Inf cumulative = %d, want 4", got)
	}
	if s.count != 4 {
		t.Errorf("count = %d", s.count)
	}
	for i := 1; i < len(s.cumulative); i++ {
		if s.cumulative[i] < s.cumulative[i-1] {
			t.Fatalf("bucket %d not cumulative", i)
		}
	}
}

// TestBucketQuantile pins the bucket interpolation behind the JSON
// latency quantiles.
func TestBucketQuantile(t *testing.T) {
	hist := func(ds ...time.Duration) bucketSnapshot {
		var h bucketHist
		for _, d := range ds {
			h.observe(d)
		}
		return h.snapshot()
	}
	repeat := func(d time.Duration, n int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = d
		}
		return out
	}
	uniform := make([]time.Duration, 1000) // 0.1ms, 0.2ms, ..., 100ms
	for i := range uniform {
		uniform[i] = time.Duration(i+1) * 100 * time.Microsecond
	}
	ms := func(f float64) time.Duration { return time.Duration(f * float64(time.Millisecond)) }
	for _, tc := range []struct {
		name          string
		s             bucketSnapshot
		p50, p90, p99 time.Duration
	}{
		{"empty", hist(), 0, 0, 0},
		// Half the samples at 3ms, half at 4ms: all in (2.5ms, 5ms].
		{"one bucket", hist(append(repeat(3*time.Millisecond, 50), repeat(4*time.Millisecond, 50)...)...),
			ms(3.75), ms(4), ms(4)},
		// le is inclusive, so 1ms samples fill (0.5ms, 1ms].
		{"on a bound", hist(repeat(time.Millisecond, 10)...), ms(0.75), ms(0.95), ms(0.995)},
		// Overflow interpolates from the last bound (10s) to the max.
		{"overflow", hist(repeat(20*time.Second, 4)...), 15 * time.Second, 19 * time.Second, ms(19900)},
		{"uniform", hist(uniform...), ms(50), ms(90), ms(99)},
	} {
		for _, q := range []struct {
			q    float64
			want time.Duration
		}{{0.50, tc.p50}, {0.90, tc.p90}, {0.99, tc.p99}} {
			got := tc.s.quantile(q.q)
			if d := got - q.want; d < -time.Microsecond || d > time.Microsecond {
				t.Errorf("%s: p%g = %v, want %v", tc.name, 100*q.q, got, q.want)
			}
			if got > tc.s.max {
				t.Errorf("%s: p%g = %v exceeds max %v", tc.name, 100*q.q, got, tc.s.max)
			}
		}
	}
}

// TestJSONLatencyMatchesProm checks that after mixed traffic on two
// routes the JSON latency object and the Prometheus histogram describe
// the same requests: latency.count is the sum of the per-route _count
// series, and the quantiles are ordered and bounded by the max.
func TestJSONLatencyMatchesProm(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for i := 0; i < 20; i++ {
		resp := postBody(t, ts.URL+"/v1/fft", `{"input": [[1,0],[2,0],[3,0],[4,0]]}`)
		resp.Body.Close()
		if i%2 == 0 {
			resp = postBody(t, ts.URL+"/v1/fft", `{"input": "not samples"}`)
			resp.Body.Close()
		}
		hr, err := testClient.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		hr.Body.Close()
	}
	snap := s.metrics.snapshot(s.cache, s.pool)
	var prom bytes.Buffer
	if err := s.metrics.writePrometheus(&prom, snap); err != nil {
		t.Fatal(err)
	}
	var promCount int64
	for _, line := range strings.Split(prom.String(), "\n") {
		if strings.HasPrefix(line, "fftd_request_duration_seconds_count{") {
			var v int64
			if _, err := fmt.Sscan(line[strings.LastIndexByte(line, ' ')+1:], &v); err != nil {
				t.Fatalf("%q: %v", line, err)
			}
			promCount += v
		}
	}
	body, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Latency map[string]json.RawMessage `json:"latency"`
	}
	if err := json.Unmarshal(body, &decoded); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"count", "mean_ms", "p50_ms", "p90_ms", "p99_ms", "max_ms"} {
		if _, ok := decoded.Latency[k]; !ok {
			t.Errorf("latency object lacks %q: %s", k, body)
		}
	}
	lat := snap.Latency
	if lat.Count != 50 || lat.Count != promCount {
		t.Errorf("latency.count = %d, Prometheus _count sum = %d, want 50", lat.Count, promCount)
	}
	if !(0 < lat.P50MS && lat.P50MS <= lat.P90MS && lat.P90MS <= lat.P99MS && lat.P99MS <= lat.MaxMS) {
		t.Errorf("quantiles out of order: %+v", lat)
	}
	if lat.MeanMS <= 0 || lat.MeanMS > lat.MaxMS {
		t.Errorf("mean %v outside (0, max %v]", lat.MeanMS, lat.MaxMS)
	}
}
